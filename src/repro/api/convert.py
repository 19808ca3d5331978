"""Streaming conversion of a dataset into blocked (v2) shards.

``convert_dataset`` re-encodes a sharded directory (``mmap://`` included) or
a legacy single ``.m3`` matrix file into a new sharded directory, never
holding more than one band of rows at a time.  It backs ``m3 convert``: pick
a codec (``zlib`` compresses; ``None`` or ``"none"`` stores raw rows that
open memory-mapped) and optionally downcast the storage dtype.  Output
blocks are row-major.

It is also the one reader of the legacy stored forms every other opener
refuses with :class:`~repro.api.sharded.LegacyFormatError`: a single v1
``.m3`` file, v1 ``.m3`` shard directories (labels trailing each shard, or
in a ``.labels`` sidecar once appended to) and column-layout ``.m3b``
shards.  It parses such a manifest itself and reads each file with the
single-file reader of its form —
:func:`~repro.data.formats.open_binary_matrix` (read-only, the v1 reader)
or :class:`~repro.data.formats_v2.BlockedMatrixReader`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.api.sharded import (
    DEFAULT_SHARD_ROWS,
    LegacyFormatError,
    ShardManifest,
    generation_manifest_name,
    manifest_generation,
    open_sharded_matrix,
    write_streamed_dataset,
)
from repro.data.codecs import Codec
from repro.data.formats import open_binary_matrix
from repro.data.formats_v2 import BlockedMatrixReader

#: Rows moved per copy step; bounds converter memory to roughly
#: ``CONVERT_CHUNK_ROWS * cols * itemsize`` regardless of dataset size, and
#: does not change the bytes written.
CONVERT_CHUNK_ROWS = 8192


class _Source:
    """A conversion source as ``(rows, data, labels)`` pieces of consecutive
    rows; ``data`` and ``labels`` (``None`` if unlabelled) slice by
    piece-local rows."""

    def __init__(self, path: Path) -> None:
        self.pieces: List[Tuple[int, Any, Optional[Any]]] = []
        self.shard_heights: List[int] = []
        self._closers: List[Callable[[], None]] = []
        if path.is_file():
            data, labels, header = open_binary_matrix(path)
            self.cols, self.dtype, self.has_labels = header.cols, header.dtype, header.has_labels
            self.pieces.append((header.rows, data, labels))
        elif not path.is_dir():
            raise FileNotFoundError(
                f"dataset source {path} is neither a .m3 file nor a shard directory"
            )
        else:
            try:
                matrix = open_sharded_matrix(path)
            except LegacyFormatError:
                self._open_legacy(path)
            else:
                self._closers.append(matrix.close)
                m = matrix.manifest
                self.cols, self.dtype, self.has_labels = m.cols, m.dtype, m.has_labels
                self.shard_heights = [shard.rows for shard in m.shards]
                self.pieces.append((m.rows, matrix, matrix.lazy_labels))
        self.rows = sum(rows for rows, _data, _labels in self.pieces)

    def _open_legacy(self, directory: Path) -> None:
        """One piece per shard of a v1 or column-layout dataset's latest
        generation, read by the single-file reader of its form."""
        name = generation_manifest_name(manifest_generation(directory) or 0)
        payload = json.loads((directory / name).read_text(encoding="utf-8"))
        self.cols, self.dtype = int(payload["cols"]), np.dtype(payload["dtype"])
        self.has_labels = bool(payload["has_labels"])
        for entry in payload["shards"]:
            path, rows = directory / entry["filename"], int(entry["rows"])
            if payload["version"] == 1:
                data, labels, header = open_binary_matrix(path)
                if entry.get("label_sidecar"):  # raw int64 labels beside the shard
                    labels = np.memmap(f"{path}.labels", dtype=np.int64, mode="r",
                                       shape=(rows,))
            else:
                data = BlockedMatrixReader(path)
                self._closers.append(data.close)
                header, labels = data.header, data.read_labels()
            if (header.cols, header.dtype) != (self.cols, self.dtype) or header.rows < rows:
                raise ValueError(
                    f"{path} holds a {header.rows} x {header.cols} {header.dtype} "
                    f"matrix, the manifest expects {rows} x {self.cols} {self.dtype}"
                )
            if self.has_labels and labels is None and rows:
                raise ValueError(f"{path} carries no labels")
            self.pieces.append((rows, data, labels if self.has_labels else None))
            self.shard_heights.append(rows)

    def bands(self, cut: int) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
        """``(start_row, rows, labels)`` covering the source in order: at
        most ``CONVERT_CHUNK_ROWS`` rows a band, none crossing a multiple of
        ``cut``; an empty source is one empty band."""
        if not self.rows:
            yield 0, np.empty((0, self.cols), dtype=self.dtype), None
        start = 0
        for rows, data, labels in self.pieces:
            lo = 0
            while lo < rows:
                hi = min(rows, lo + CONVERT_CHUNK_ROWS, lo + cut - (start + lo) % cut)
                yield start + lo, np.asarray(data[lo:hi]), (
                    None if labels is None else np.asarray(labels[lo:hi], dtype=np.int64)
                )
                lo = hi
            start += rows

    def close(self) -> None:
        for close in self._closers:
            close()
        self.pieces = []


def convert_dataset(
    source: Union[str, Path],
    destination: Union[str, Path],
    codec: Optional[Union[str, Codec]] = "zlib",
    block_rows: Optional[int] = None,
    storage_dtype: Optional[Any] = None,
    shard_rows: Optional[int] = None,
) -> ShardManifest:
    """Re-encode ``source`` into a sharded dataset at ``destination``.

    Parameters
    ----------
    source:
        A ``.m3`` matrix file or a sharded dataset directory, legacy forms
        included.
    destination:
        Directory to create; must not already contain a ``manifest.json``
        and must not be the source itself.
    codec:
        Target codec name: ``"zlib"``, or ``"none"`` (also ``None``) for raw
        rows that open memory-mapped.
    block_rows, storage_dtype:
        Encoding knobs, as in
        :func:`repro.api.sharded.write_sharded_dataset`.
    shard_rows:
        Rows per output shard; defaults to the source's (largest) shard
        height when converting a sharded dataset that holds rows, else
        ``DEFAULT_SHARD_ROWS``.
    """
    source = Path(source)
    destination = Path(destination)
    if destination.resolve() == source.resolve():
        raise ValueError(f"cannot convert {source} onto itself")
    if (destination / "manifest.json").exists():
        raise ValueError(
            f"destination {destination} already holds a sharded dataset; "
            f"refusing to overwrite"
        )

    src = _Source(source)
    try:
        if shard_rows is None:
            shard_rows = max(src.shard_heights, default=0) or DEFAULT_SHARD_ROWS
        if shard_rows <= 0:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        return write_streamed_dataset(
            destination,
            src.bands(shard_rows),
            src.cols,
            src.dtype,
            src.has_labels,
            shard_rows,
            codec=codec,
            block_rows=block_rows,
            storage_dtype=storage_dtype,
        )
    finally:
        src.close()
