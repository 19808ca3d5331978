"""Chunked out-of-core dataset writers.

The paper materialised up to 190 GB of dense Infimnist data on disk.  Writing
such a file must itself be out-of-core: :class:`OutOfCoreWriter` appends row
chunks to an M3 binary matrix file without ever holding more than one chunk in
memory, and :func:`write_infimnist_dataset` drives it from an
:class:`~repro.data.infimnist.InfimnistGenerator` to produce a dataset of any
requested size (by example count or by on-disk bytes).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.data.formats import (
    BinaryMatrixHeader,
    HEADER_SIZE,
    create_binary_matrix,
    read_binary_matrix_header,
)
from repro.data.infimnist import BYTES_PER_IMAGE, InfimnistGenerator, NUM_FEATURES

#: Rows :func:`write_infimnist_dataset` generates and writes per step; it
#: bounds the writer's memory and does not change the bytes written.
WRITE_CHUNK_ROWS = 1024


class OutOfCoreWriter:
    """Fills a pre-created M3 binary matrix file one row-chunk at a time.

    The target file must have been created with
    :func:`~repro.data.formats.create_binary_matrix`; the writer tracks how
    many rows have been appended and refuses to overflow the declared shape.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.header: BinaryMatrixHeader = read_binary_matrix_header(self.path)
        self._rows_written = 0

    @property
    def rows_written(self) -> int:
        """Number of rows appended so far."""
        return self._rows_written

    @property
    def complete(self) -> bool:
        """Whether every declared row has been written."""
        return self._rows_written == self.header.rows

    def append(self, chunk: np.ndarray, labels: Optional[np.ndarray] = None) -> None:
        """Append a chunk of rows (and labels, if the file has a label section)."""
        chunk = np.ascontiguousarray(chunk, dtype=self.header.dtype)
        if chunk.ndim != 2 or chunk.shape[1] != self.header.cols:
            raise ValueError(
                f"chunk must have shape (n, {self.header.cols}), got {chunk.shape}"
            )
        n = chunk.shape[0]
        if self._rows_written + n > self.header.rows:
            raise ValueError(
                f"appending {n} rows would overflow the declared {self.header.rows} rows"
            )
        if self.header.has_labels:
            if labels is None:
                raise ValueError("file has a label section but no labels were given")
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        elif labels is not None:
            raise ValueError("file has no label section but labels were given")

        row_bytes = self.header.cols * self.header.dtype.itemsize
        data_offset = HEADER_SIZE + self._rows_written * row_bytes
        with self.path.open("r+b") as handle:
            handle.seek(data_offset)
            handle.write(chunk.tobytes())
            if self.header.has_labels and labels is not None:
                handle.seek(self.header.label_offset + self._rows_written * 8)
                handle.write(labels.tobytes())
        self._rows_written += n

    def finalize(self) -> BinaryMatrixHeader:
        """Verify that the file is fully written and return its header."""
        if not self.complete:
            raise RuntimeError(
                f"dataset incomplete: {self._rows_written}/{self.header.rows} rows written"
            )
        return self.header


def write_infimnist_dataset(
    path: Union[str, Path],
    num_examples: Optional[int] = None,
    target_bytes: Optional[int] = None,
    seed: int = 0,
) -> BinaryMatrixHeader:
    """Materialise an Infimnist-style dataset file in M3 binary format.

    Exactly one of ``num_examples`` or ``target_bytes`` must be given; with
    ``target_bytes`` the number of examples is chosen so the data section is as
    close to the target as possible without exceeding it (mirroring how the
    paper's "10 GB … 190 GB" subsets are defined).

    Returns the header of the written file.
    """
    if (num_examples is None) == (target_bytes is None):
        raise ValueError("specify exactly one of num_examples or target_bytes")
    if target_bytes is not None:
        num_examples = max(1, target_bytes // BYTES_PER_IMAGE)
    assert num_examples is not None
    if num_examples <= 0:
        raise ValueError(f"num_examples must be positive, got {num_examples}")

    gen = InfimnistGenerator(seed=seed)
    create_binary_matrix(path, num_examples, NUM_FEATURES, np.float64, with_labels=True)
    writer = OutOfCoreWriter(path)
    for features, labels in gen.iter_batches(num_examples, WRITE_CHUNK_ROWS):
        writer.append(features, labels)
    return writer.finalize()
