"""Streaming conversion of a dataset into blocked (v2) shards.

``convert_dataset`` re-encodes an existing dataset — a single ``.m3`` matrix
file or a sharded directory of any form — into a new sharded directory,
without ever materialising more than one chunk of rows at a time.  It backs
the ``m3 convert`` CLI command: pick a codec (``zlib`` compresses; ``None``
or ``"none"`` stores raw rows that open memory-mapped) and optionally
downcast the storage dtype.  Output blocks are always row-major; a legacy
source (v1 ``.m3`` shards, column-layout blocks — both read-only) converts
like any other, which is how such a dataset becomes appendable again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional, Union

import numpy as np

from repro.api.sharded import (
    DEFAULT_SHARD_ROWS,
    ShardInfo,
    ShardManifest,
    open_sharded_matrix,
    write_manifest,
)
from repro.data.codecs import Codec, get_codec
from repro.data.formats import open_binary_matrix
from repro.data.formats_v2 import BlockedMatrixWriter, default_block_rows

#: Rows moved per copy step; bounds converter memory to roughly
#: ``CONVERT_CHUNK_ROWS * cols * itemsize`` regardless of dataset size, and
#: does not change the bytes written.
CONVERT_CHUNK_ROWS = 8192


class _Source:
    """A uniform sliceable view over either source format."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._sharded = None
        self._mmap_data = None
        if path.is_dir():
            matrix = open_sharded_matrix(path)
            self._sharded = matrix
            self.data: Any = matrix
            self.labels: Optional[Any] = matrix.lazy_labels
            self.rows, self.cols = matrix.shape
            self.dtype = matrix.dtype
        elif path.is_file():
            data, labels, header = open_binary_matrix(path, mode="r")
            self._mmap_data = data
            self.data = data
            self.labels = labels
            self.rows, self.cols = int(header.rows), int(header.cols)
            self.dtype = header.dtype
        else:
            raise FileNotFoundError(
                f"dataset source {path} is neither a .m3 file nor a shard directory"
            )

    def close(self) -> None:
        if self._sharded is not None:
            self._sharded.close()
        self._mmap_data = None
        self.data = None
        self.labels = None


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
        A ``.m3`` matrix file or a sharded dataset directory (any form).
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
            shards = src._sharded.manifest.shards if src._sharded is not None else ()
            shard_rows = max((s.rows for s in shards), default=0) or DEFAULT_SHARD_ROWS
        if shard_rows <= 0:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")

        resolved_codec = (
            codec if isinstance(codec, Codec) else get_codec(codec or "none")
        )
        resolved_storage = np.dtype(
            src.dtype if storage_dtype is None else storage_dtype
        )
        if block_rows is None:
            block_rows = default_block_rows(src.cols, resolved_storage.itemsize)

        destination.mkdir(parents=True, exist_ok=True)
        shards: List[ShardInfo] = []
        for index, start in enumerate(range(0, max(src.rows, 1), shard_rows)):
            stop = min(start + shard_rows, src.rows)
            if stop <= start and src.rows > 0:
                break
            filename = f"shard-{index:05d}.m3b"
            with BlockedMatrixWriter(
                destination / filename,
                cols=src.cols,
                block_rows=block_rows,
                codec=resolved_codec,
                dtype=src.dtype,
                storage_dtype=resolved_storage,
            ) as writer:
                for lo in range(start, stop, CONVERT_CHUNK_ROWS):
                    hi = min(lo + CONVERT_CHUNK_ROWS, stop)
                    writer.append(np.asarray(src.data[lo:hi]))
                    if src.labels is not None:
                        writer.append_labels(
                            np.asarray(src.labels[lo:hi], dtype=np.int64)
                        )
                header = writer.finalize()
            shards.append(
                ShardInfo(
                    filename=filename,
                    start_row=start,
                    rows=stop - start,
                    compressed_bytes=header.compressed_bytes,
                    raw_bytes=header.raw_bytes,
                )
            )

        manifest = ShardManifest(
            rows=src.rows,
            cols=src.cols,
            dtype=np.dtype(src.dtype),
            has_labels=src.labels is not None,
            shards=shards,
            codec=resolved_codec.name,
            block_rows=block_rows,
            storage_dtype=resolved_storage,
        )
        write_manifest(destination, manifest)
        return manifest
    finally:
        src.close()
