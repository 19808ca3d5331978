"""The legacy v1 M3 binary matrix file, read only by ``m3 convert``.

Older builds stored a memory-mapped dataset as one file: a dense, row-major
array of fixed-width elements behind a small fixed-size header, with no
checksum anywhere.  Nothing writes it any more.  Every dataset is now a
directory of blocked, checksummed v2 shards (:mod:`repro.data.formats_v2`);
``mmap://`` is one raw shard, whose data region is the same dense row-major
matrix.  Every opener refuses a v1 file with
:class:`~repro.api.sharded.LegacyFormatError`, and
:func:`repro.api.convert.convert_dataset` reads it through
:func:`open_binary_matrix`, read-only.

Layout::

    bytes 0..7     magic  b"M3MATRIX"
    bytes 8..11    format version      (uint32, little endian)
    bytes 12..15   dtype code length   (uint32) followed by the dtype string
    bytes 16..31   dtype string        (padded with NULs to 16 bytes)
    bytes 32..39   number of rows      (uint64)
    bytes 40..47   number of columns   (uint64)
    bytes 48..55   label column flag   (uint64; 1 if a label vector follows the
                                        data matrix, 0 otherwise)
    bytes 56..63   reserved            (uint64, zero)
    bytes 64..     row-major data matrix, then (optionally) an int64 label
                   vector of length ``rows``

The 64-byte header keeps the data section 64-byte aligned.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

MAGIC = b"M3MATRIX"
FORMAT_VERSION = 1
HEADER_SIZE = 64
_HEADER_STRUCT = struct.Struct("<8sI I16s QQQQ")


@dataclass(frozen=True)
class BinaryMatrixHeader:
    """Parsed header of an M3 binary matrix file."""

    version: int
    dtype: np.dtype
    rows: int
    cols: int
    has_labels: bool

    @property
    def data_bytes(self) -> int:
        """Size in bytes of the data matrix section."""
        return self.rows * self.cols * self.dtype.itemsize

    @property
    def label_bytes(self) -> int:
        """Size in bytes of the label section (0 if absent)."""
        return self.rows * 8 if self.has_labels else 0

    @property
    def file_bytes(self) -> int:
        """Expected total file size."""
        return HEADER_SIZE + self.data_bytes + self.label_bytes

    @property
    def label_offset(self) -> int:
        """Byte offset of the label vector within the file."""
        return HEADER_SIZE + self.data_bytes


def read_binary_matrix_header(path: Union[str, Path]) -> BinaryMatrixHeader:
    """Read and validate the header of an M3 binary matrix file.

    Besides parsing, this validates the actual file size against the size the
    header implies (``header.file_bytes``), so a truncated file fails here
    with a clear error instead of deep inside ``numpy.memmap``.
    """
    path = Path(path)
    with path.open("rb") as handle:
        raw = handle.read(HEADER_SIZE)
    if len(raw) < _HEADER_STRUCT.size:
        raise ValueError(
            f"{path} is too small to be an M3 matrix file: expected at least "
            f"a {_HEADER_STRUCT.size}-byte header, found {len(raw)} bytes"
        )
    magic, version, dtype_len, dtype_raw, rows, cols, has_labels, _reserved = (
        _HEADER_STRUCT.unpack(raw[: _HEADER_STRUCT.size])
    )
    if magic != MAGIC:
        hint = ""
        if magic == b"M3BLOCKS":
            hint = (
                "; this is a v2 blocked shard — read it through "
                "repro.data.formats_v2 or the shard:// backend"
            )
        raise ValueError(
            f"{path} is not an M3 matrix file: expected magic {MAGIC!r}, "
            f"found {magic!r}{hint}"
        )
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported M3 matrix format version {version} "
            f"(this build reads version {FORMAT_VERSION}; the file may have "
            f"been written by a newer repro)"
        )
    dtype = np.dtype(dtype_raw[:dtype_len].decode("ascii"))
    header = BinaryMatrixHeader(
        version=version,
        dtype=dtype,
        rows=rows,
        cols=cols,
        has_labels=bool(has_labels),
    )
    actual_bytes = path.stat().st_size
    if actual_bytes < header.file_bytes:
        raise ValueError(
            f"{path} is truncated: header declares a {header.rows} x {header.cols} "
            f"{header.dtype} matrix{' with labels' if header.has_labels else ''} "
            f"({header.file_bytes} bytes expected) but the file is only "
            f"{actual_bytes} bytes"
        )
    return header


def open_binary_matrix(
    path: Union[str, Path],
) -> Tuple[np.memmap, Optional[np.memmap], BinaryMatrixHeader]:
    """Open a v1 matrix file as read-only memory-mapped arrays.

    Returns
    -------
    (data, labels, header):
        ``data`` is a ``(rows, cols)`` memmap; ``labels`` is a ``(rows,)``
        int64 memmap or ``None``; ``header`` is the parsed header.
    """
    path = Path(path)
    header = read_binary_matrix_header(path)
    data = np.memmap(
        path,
        dtype=header.dtype,
        mode="r",
        offset=HEADER_SIZE,
        shape=(header.rows, header.cols),
        order="C",
    )
    labels: Optional[np.memmap] = None
    if header.has_labels:
        labels = np.memmap(
            path,
            dtype=np.int64,
            mode="r",
            offset=header.label_offset,
            shape=(header.rows,),
        )
    return data, labels, header
