"""The M3 v2 *blocked* matrix format: fixed-size blocks, independently coded.

Where the v1 format (:mod:`repro.data.formats`) is a raw memory-mappable
array, v2 splits the matrix into fixed-size row **blocks**, each
independently coded through a pluggable :mod:`~repro.data.codecs` codec and
optionally stored in a narrower dtype (float32/float16 downcasting).  Writers
store every block row-major.  Under the identity codec ``none`` with no
downcast the data region is therefore still one row-major matrix, which
:class:`~repro.api.sharded.ShardedMatrix` maps; under any other codec it
reads the file through :class:`BlockedMatrixReader` instead, trading the
mmap property for bandwidth.  Files written by older versions may hold
**column-major** blocks, a legacy form nothing writes any more; only
:func:`repro.api.convert.convert_dataset` reads it, through this reader.

Layout::

    bytes 0..7     magic  b"M3BLOCKS"
    bytes 8..11    format version (uint32, little endian; currently 2)
    bytes 12..15   CRC32 of the JSON header trailer (uint32)
    bytes 16..23   header offset (uint64) — where the JSON header starts
    bytes 24..31   header length (uint64)
    bytes 32..     coded segments, tightly packed, in block order
    trailer        the JSON header itself (written last, Parquet-style, so
                   the writer can stream blocks without knowing their sizes
                   up front)

The trailer CRC is what makes a *torn convert* detectable at open time:
the prefix is rewritten last, so a crash mid-trailer leaves either the
placeholder prefix (no header to find) or a prefix whose CRC does not
match the bytes on disk — both refuse to open instead of serving garbage.
Every coded segment additionally records a CRC32 of its payload in the
header's segment table, verified before decode; corruption raises
:class:`ChecksumError` naming the file, block and segment.  Checksums came
in just after the format itself, before any file this repository pins, so a
zeroed trailer CRC and a segment entry without one are refused at open, never
read unverified.

The JSON header carries the geometry (``rows``/``cols``/``block_rows``), the
codec and layout names, the *logical* dtype (what consumers see) and the
*storage* dtype (what is on disk), and the full block/segment table: for the
``row`` layout each block is one segment of ``block_rows x cols`` values in C
order; for the legacy ``column`` layout each block holds ``cols`` segments,
one per column.
Labels, when present, are one coded int64 segment.

Reads go through :class:`BlockedMatrixReader`, which serves rows with
``os.pread`` — positioned reads on one shared file descriptor, so a pool of
reader threads can fetch blocks concurrently with no lock at all.  The fetch
(I/O) and decode (CPU) halves are separate methods, which is what lets a
reader of the parallel chunk pipeline fetch compressed payloads under its
retry envelope and then decompress them, unretried, into a reusable buffer.
A whole row-layout block whose storage dtype is the destination's decodes
straight into the destination through
:meth:`~repro.data.codecs.Codec.decode_into`, with no intermediate bytes;
partial blocks, narrower storage dtypes and the legacy column layout decode
to a transient array and are cast on the copy.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.codecs import BytesLike, Codec, get_codec
from repro.fanout import available_cpus, map_ordered
from repro.faults import InjectedFault, maybe_fire, should_fire

BLOCKED_MAGIC = b"M3BLOCKS"
BLOCKED_VERSION = 2
BLOCKED_PREFIX = struct.Struct("<8sII QQ")
BLOCKED_PREFIX_SIZE = 32
DEFAULT_BLOCK_BYTES = 1024 * 1024
"""Target raw bytes per block when no explicit ``block_rows`` is given."""

#: Block layouts a reader decodes; writers produce ``row`` only.
LAYOUTS = ("row", "column")


class ChecksumError(ValueError):
    """Stored and computed CRCs disagree: the bytes on disk are corrupt.

    The message always names the file, and — for segment checksums — the
    block and segment, so a scrub (``m3 info --verify``) can report exactly
    which blocks need re-converting.
    """


#: One segment of the block table: ``(file_offset, coded_bytes, raw_bytes,
#: payload_crc32)``.
Segment = Tuple[int, int, int, int]


def _parse_segment(raw: Sequence[Any], where: str) -> Segment:
    """Parse a JSON segment entry; one without a CRC cannot be verified."""
    if len(raw) != 4 or raw[3] is None:
        raise ChecksumError(f"{where} carries no CRC, so its bytes cannot be verified")
    return (int(raw[0]), int(raw[1]), int(raw[2]), int(raw[3]))


def default_block_rows(cols: int, itemsize: int, target_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
    """Rows per block targeting ``target_bytes`` of raw storage per block."""
    return max(1, target_bytes // max(cols * itemsize, 1))


@dataclass(frozen=True)
class BlockInfo:
    """One block of a blocked matrix file: a row band plus its segments."""

    start_row: int
    rows: int
    #: ``(file_offset, coded_bytes, raw_bytes, payload_crc32)`` per segment —
    #: one segment for the ``row`` layout, one per column for the legacy
    #: ``column`` layout.
    segments: Tuple[Segment, ...]

    @property
    def stop_row(self) -> int:
        """Global index one past the block's last row."""
        return self.start_row + self.rows

    @property
    def coded_bytes(self) -> int:
        """Total coded payload bytes of the block."""
        return sum(segment[1] for segment in self.segments)


@dataclass(frozen=True)
class BlockedMatrixHeader:
    """Parsed header of an M3 v2 blocked matrix file."""

    version: int
    codec: str
    dtype: np.dtype
    storage_dtype: np.dtype
    rows: int
    cols: int
    block_rows: int
    layout: str
    has_labels: bool
    blocks: Tuple[BlockInfo, ...]
    label_segment: Optional[Segment]
    raw_bytes: int
    compressed_bytes: int
    #: The 32-byte file prefix the header was read under (magic, version,
    #: trailer CRC, trailer offset and length) and the file size it was
    #: checked against: what :func:`shows_header` compares a file with.
    prefix: bytes
    file_bytes: int

    @property
    def ratio(self) -> float:
        """Raw-to-coded size ratio (>= 1 means the codec saved bytes)."""
        if self.compressed_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes


@dataclass(frozen=True)
class CodedBlock:
    """One row-major block in its on-disk form: the coded payload and its entry.

    ``segment`` is ``(payload, raw_bytes, payload_crc32)``: the block's rows
    in C order, coded.  Blocks sit at fixed multiples of ``block_rows``, so a
    block's coded form depends only on its rows and the file's geometry:
    whoever holds a ``CodedBlock`` can write it again without running the
    codec (:meth:`BlockedMatrixWriter.write_coded_block`).  A ``none``
    payload is a view of the rows it was coded from, not a copy: whoever
    keeps a ``CodedBlock`` past the call keeps those rows unchanged.
    """

    rows: int
    segment: Tuple[BytesLike, int, int]


def _code_segment(codec: Codec, raw: BytesLike) -> Tuple[BytesLike, int, int]:
    payload = codec.encode(raw)
    return (payload, len(raw), zlib.crc32(payload))


def encode_block(rows: np.ndarray, codec: Codec, storage_dtype: np.dtype) -> CodedBlock:
    """Cast ``rows`` to ``storage_dtype`` and code them as one block.

    This is the only place block rows meet the codec on the write side:
    every writer reaches it through :func:`encode_blocks`, except the short
    last block :meth:`BlockedMatrixWriter.finalize` flushes.
    """
    stored = np.ascontiguousarray(rows, dtype=storage_dtype)
    return CodedBlock(
        rows=int(stored.shape[0]),
        segment=_code_segment(codec, memoryview(stored).cast("B")),
    )


def encode_blocks(
    blocks: Sequence[np.ndarray], codec: Codec, storage_dtype: np.dtype
) -> Iterator[CodedBlock]:
    """:func:`encode_block` over ``blocks``, yielded strictly in input order.

    The blocks fan out over :func:`repro.fanout.map_ordered` on one worker
    per CPU available to the process, with at most ``workers + 1`` blocks
    submitted and not yet consumed; a lone block is coded inline, with no
    thread.  Every block codes independently and lands in input order, so
    the bytes are the serial loop's at any worker count.  Unlike a
    full-matrix pass (``repro.ml.base.compute_threads``) the count is not
    divided by BLAS threads: a codec call is single-threaded native code
    that releases the GIL, so one worker per CPU keeps every core busy.
    Nothing sets the count; tests pin it by patching ``available_cpus``.
    """
    workers = available_cpus() if len(blocks) > 1 else 1
    return map_ordered(
        lambda rows: encode_block(rows, codec, storage_dtype),
        blocks,
        workers,
        workers + 1,
    )


class BlockedMatrixWriter:
    """Stream rows into a blocked v2 file with bounded memory.

    ``append`` codes every block its rows fill (:func:`encode_blocks`),
    writes them in order and drops them — the writer keeps only the
    segment table and the rows of one unfilled block — so converting a
    dataset far larger than RAM holds at most ``workers + 1`` blocks and
    their coded payloads in flight.
    :meth:`write_coded_block` places a block somebody already coded (the
    shard appender re-assembling its tail) without touching the codec.
    ``finalize`` flushes the unfilled block, writes the label segment and the
    JSON header trailer, and patches the prefix to point at it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        cols: int,
        block_rows: Optional[int] = None,
        codec: Union[str, Codec] = "zlib",
        dtype: Any = np.float64,
        storage_dtype: Optional[Any] = None,
    ) -> None:
        if cols <= 0:
            raise ValueError(f"cols must be positive, got {cols}")
        self.path = Path(path)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        self.storage_dtype = self.dtype if storage_dtype is None else np.dtype(storage_dtype)
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        if block_rows is None:
            block_rows = default_block_rows(self.cols, self.storage_dtype.itemsize)
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self.block_rows = int(block_rows)
        self.rows_written = 0
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self._blocks: List[BlockInfo] = []
        self._pending: List[np.ndarray] = []
        self._pending_rows = 0
        self._labels: List[np.ndarray] = []
        self._label_segment: Optional[Segment] = None
        self._handle = self.path.open("wb")
        # Placeholder prefix; finalize() rewrites it with the real header
        # offset once every segment has been written.
        self._handle.write(
            BLOCKED_PREFIX.pack(BLOCKED_MAGIC, BLOCKED_VERSION, 0, 0, 0)
        )
        self._offset = BLOCKED_PREFIX_SIZE
        self._finalized = False

    # -- appending -----------------------------------------------------------

    def append(self, rows: np.ndarray) -> None:
        """Append a band of rows (any height); blocks flush as they fill."""
        self._check_writable()
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.cols:
            raise ValueError(
                f"expected rows of shape (n, {self.cols}), got {rows.shape}"
            )
        if rows.shape[0] == 0:
            return
        self._check_no_short_block()
        self._pending.append(rows)
        self._pending_rows += int(rows.shape[0])
        filled = [
            self._take_pending(self.block_rows)
            for _ in range(self._pending_rows // self.block_rows)
        ]
        for coded in encode_blocks(filled, self.codec, self.storage_dtype):
            self._put_block(coded)

    def append_labels(self, labels: np.ndarray) -> None:
        """Append the label slice matching previously appended rows."""
        self._check_writable()
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size:
            self._labels.append(labels)

    # -- block encoding ------------------------------------------------------

    def _take_pending(self, rows: int) -> np.ndarray:
        taken: List[np.ndarray] = []
        needed = rows
        while needed > 0:
            head = self._pending[0]
            if head.shape[0] <= needed:
                taken.append(head)
                needed -= head.shape[0]
                self._pending.pop(0)
            else:
                taken.append(head[:needed])
                self._pending[0] = head[needed:]
                needed = 0
        self._pending_rows -= rows
        if len(taken) == 1:
            return taken[0]
        return np.concatenate(taken, axis=0)

    def _write_payload(self, payload: bytes, raw_bytes: int, crc: int) -> Segment:
        offset = self._offset
        self._handle.write(payload)
        self._offset += len(payload)
        self.raw_bytes += raw_bytes
        self.compressed_bytes += len(payload)
        return (offset, len(payload), raw_bytes, crc)

    def _put_block(self, coded: CodedBlock) -> None:
        segment = self._write_payload(*coded.segment)
        self._blocks.append(
            BlockInfo(start_row=self.rows_written, rows=coded.rows, segments=(segment,))
        )
        self.rows_written += coded.rows

    def write_coded_block(self, coded: CodedBlock) -> None:
        """Write an already-coded block as the file's next block.

        The block must have been coded for this writer's geometry (codec,
        storage dtype, columns); the bytes land exactly where
        :meth:`append` of the same rows would have put them.  A full block
        may follow any full block; a *short* one (fewer than ``block_rows``
        rows) is the file's last block, so only :meth:`finalize` may follow.
        """
        self._check_writable()
        if not 0 < coded.rows <= self.block_rows or self._pending_rows:
            raise ValueError(
                f"{self.path}: a coded block must hold 1..{self.block_rows} "
                f"rows (got {coded.rows}) and precede any buffered rows "
                f"({self._pending_rows} pending)"
            )
        self._check_no_short_block()
        self._put_block(coded)

    # -- lifecycle -----------------------------------------------------------

    def _check_writable(self) -> None:
        if self._finalized:
            raise RuntimeError(f"writer for {self.path} is already finalized")

    def _check_no_short_block(self) -> None:
        if self.rows_written % self.block_rows:
            raise ValueError(
                f"{self.path}: the last block written is short "
                f"({self.rows_written % self.block_rows} of {self.block_rows} "
                f"rows); only finalize() may follow it"
            )

    def finalize(self) -> BlockedMatrixHeader:
        """Flush the unfilled block, write labels + header trailer, close the file."""
        self._check_writable()
        self._finalized = True
        if self._pending_rows > 0:
            self._put_block(
                encode_block(
                    self._take_pending(self._pending_rows), self.codec, self.storage_dtype
                )
            )
        has_labels = bool(self._labels)
        if has_labels:
            labels = np.concatenate(self._labels) if len(self._labels) > 1 else self._labels[0]
            if labels.shape[0] != self.rows_written:
                self._handle.close()
                raise ValueError(
                    f"{self.path}: {labels.shape[0]} labels appended for "
                    f"{self.rows_written} rows"
                )
            self._label_segment = self._write_payload(
                *_code_segment(self.codec, labels.tobytes())
            )
        header = {
            "codec": self.codec.name,
            "dtype": self.dtype.str,
            "storage_dtype": self.storage_dtype.str,
            "rows": self.rows_written,
            "cols": self.cols,
            "block_rows": self.block_rows,
            "layout": "row",
            "has_labels": has_labels,
            "blocks": [
                {"start_row": b.start_row, "rows": b.rows,
                 "segments": [list(segment) for segment in b.segments]}
                for b in self._blocks
            ],
            "labels": list(self._label_segment) if self._label_segment else None,
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
        }
        payload = json.dumps(header).encode("utf-8")
        trailer_crc = zlib.crc32(payload)
        header_offset = self._offset
        if should_fire("write.trailer"):
            # Simulate a torn convert: half the trailer lands (the rest is
            # garbage) but the prefix still commits with the real CRC and
            # length, exactly as a crash between two write() syscalls could
            # leave the file.  The trailer CRC check rejects it at open.
            torn = payload[: len(payload) // 2]
            self._handle.write(torn + b"\x00" * (len(payload) - len(torn)))
            self._handle.seek(0)
            self._handle.write(
                BLOCKED_PREFIX.pack(
                    BLOCKED_MAGIC,
                    BLOCKED_VERSION,
                    trailer_crc,
                    header_offset,
                    len(payload),
                )
            )
            self._handle.close()
            raise InjectedFault("write.trailer", 1, str(self.path))
        self._handle.write(payload)
        self._handle.seek(0)
        self._handle.write(
            BLOCKED_PREFIX.pack(
                BLOCKED_MAGIC,
                BLOCKED_VERSION,
                trailer_crc,
                header_offset,
                len(payload),
            )
        )
        self._handle.close()
        return read_blocked_header(self.path)

    def __enter__(self) -> "BlockedMatrixWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            if not self._finalized:
                self.finalize()
        elif not self._handle.closed:
            self._handle.close()


def write_blocked_matrix(
    path: Union[str, Path],
    data: np.ndarray,
    labels: Optional[np.ndarray] = None,
    block_rows: Optional[int] = None,
    codec: Union[str, Codec] = "zlib",
    storage_dtype: Optional[Any] = None,
) -> BlockedMatrixHeader:
    """Write an in-memory matrix (and optional labels) as one v2 blocked file."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    writer = BlockedMatrixWriter(
        path,
        cols=int(data.shape[1]),
        block_rows=block_rows,
        codec=codec,
        dtype=data.dtype,
        storage_dtype=storage_dtype,
    )
    writer.append(data)
    if labels is not None:
        writer.append_labels(labels)
    return writer.finalize()


def read_blocked_header(
    path: Union[str, Path], fd: Optional[int] = None
) -> BlockedMatrixHeader:
    """Read and validate the header of a v2 blocked matrix file.

    Errors name the offending path and the expected-vs-actual magic/version,
    and the declared segment extents are checked against the real file size so
    a truncated shard fails here instead of mid-decode.  ``fd``, a descriptor
    open on ``path``, is read in place of the path: the header is then the
    one of the file the caller goes on to read through ``fd``, even if a
    writer has replaced ``path`` meanwhile.
    """
    path = Path(path)
    if fd is None:
        fd = os.open(path, os.O_RDONLY)
        try:
            return _read_header(path, fd)
        finally:
            os.close(fd)
    return _read_header(path, fd)


def _read_header(path: Path, fd: int) -> BlockedMatrixHeader:
    actual_bytes = os.fstat(fd).st_size
    raw = os.pread(fd, BLOCKED_PREFIX_SIZE, 0)
    if len(raw) < BLOCKED_PREFIX_SIZE:
        raise ValueError(
            f"{path} is too small to be an M3 blocked matrix file: "
            f"expected at least a {BLOCKED_PREFIX_SIZE}-byte prefix, "
            f"found {len(raw)} bytes"
        )
    magic, version, trailer_crc, header_offset, header_len = BLOCKED_PREFIX.unpack(raw)
    if magic != BLOCKED_MAGIC:
        raise ValueError(
            f"{path} is not an M3 blocked matrix file: expected magic "
            f"{BLOCKED_MAGIC!r}, found {magic!r}"
        )
    if version != BLOCKED_VERSION:
        raise ValueError(
            f"{path}: unsupported M3 blocked format version {version} "
            f"(this build reads version {BLOCKED_VERSION}; the file may "
            f"have been written by a newer repro)"
        )
    if header_offset + header_len > actual_bytes:
        raise ValueError(
            f"{path} is truncated: the header trailer is declared at "
            f"bytes [{header_offset}, {header_offset + header_len}) but "
            f"the file is only {actual_bytes} bytes"
        )
    payload = os.pread(fd, header_len, header_offset)
    computed = zlib.crc32(payload)
    if computed != trailer_crc:
        raise ChecksumError(
            f"{path}: header trailer CRC mismatch (stored "
            f"{trailer_crc:#010x}, computed {computed:#010x}) — the file "
            f"was torn mid-convert or corrupted on disk"
        )
    try:
        parsed: Dict[str, Any] = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: corrupt v2 header trailer: {error}") from error
    blocks = tuple(
        BlockInfo(
            start_row=int(entry["start_row"]),
            rows=int(entry["rows"]),
            segments=tuple(
                _parse_segment(seg, f"{path}: block {index} segment {position}")
                for position, seg in enumerate(entry["segments"])
            ),
        )
        for index, entry in enumerate(parsed["blocks"])
    )
    label_segment = parsed.get("labels")
    layout = str(parsed["layout"])
    if layout not in LAYOUTS:
        raise ValueError(f"{path}: layout must be one of {LAYOUTS}, got {layout!r}")
    header = BlockedMatrixHeader(
        version=version,
        codec=str(parsed["codec"]),
        dtype=np.dtype(parsed["dtype"]),
        storage_dtype=np.dtype(parsed["storage_dtype"]),
        rows=int(parsed["rows"]),
        cols=int(parsed["cols"]),
        block_rows=int(parsed["block_rows"]),
        layout=layout,
        has_labels=bool(parsed["has_labels"]),
        blocks=blocks,
        label_segment=(
            _parse_segment(label_segment, f"{path}: label segment") if label_segment else None
        ),
        raw_bytes=int(parsed["raw_bytes"]),
        compressed_bytes=int(parsed["compressed_bytes"]),
        prefix=raw,
        file_bytes=actual_bytes,
    )
    for block in header.blocks:
        for offset, coded, _raw, _crc in block.segments:
            if offset + coded > actual_bytes:
                raise ValueError(
                    f"{path} is truncated: block at row {block.start_row} "
                    f"declares a segment at bytes [{offset}, {offset + coded}) "
                    f"but the file is only {actual_bytes} bytes"
                )
    return header


def shows_header(fd: int, header: BlockedMatrixHeader) -> bool:
    """Whether the file open at ``fd`` still holds ``header``.

    True when the file has the size and the prefix ``header`` was read
    under, and its trailer still matches the prefix's CRC.  The trailer
    lists every segment's CRC, so such a file holds the same header over
    the same checksummed segments: whoever checked ``header`` against a
    manifest need not parse or check it again.  Anything else (a file
    truncated, torn, corrupted in its prefix or trailer, or rewritten with
    other rows) is ``False``, and the caller reads the header afresh.
    """
    if os.fstat(fd).st_size != header.file_bytes:
        return False
    if os.pread(fd, BLOCKED_PREFIX_SIZE, 0) != header.prefix:
        return False
    _magic, _version, trailer_crc, offset, length = BLOCKED_PREFIX.unpack(header.prefix)
    return zlib.crc32(os.pread(fd, length, offset)) == trailer_crc


@dataclass(frozen=True)
class BlockPayload:
    """Fetched (still-coded) payloads of one block — the I/O half of a read."""

    index: int
    payloads: Tuple[bytes, ...]
    compressed_bytes: int


class BlockedMatrixReader:
    """Random and streaming reads over a v2 blocked matrix file.

    The reader keeps one file descriptor and serves every fetch with
    ``os.pread``, so concurrent fetches from a reader pool need no locking.
    Fetch (:meth:`fetch_block`) and decode (:meth:`decode_block_into`) are
    separate halves, which every caller runs back to back on one thread:
    a retry envelope can then cover the I/O alone.  :meth:`read_rows_into`
    composes them.

    ``header``, a header read from this path before, is kept when the file
    still holds it (:func:`shows_header`); otherwise, and when omitted, the
    header is read and checked afresh.  Either way it is checked or read
    through the reader's own descriptor, so it describes the file the reader
    reads, even if a writer replaces the path meanwhile.  ``reader.header is
    header`` tells which happened.
    """

    def __init__(
        self, path: Union[str, Path], header: Optional[BlockedMatrixHeader] = None
    ) -> None:
        self.path = path if isinstance(path, Path) else Path(path)
        fd = os.open(self.path, os.O_RDONLY)
        try:
            if header is None or not shows_header(fd, header):
                header = read_blocked_header(self.path, fd)
        except BaseException:
            os.close(fd)
            raise
        self.header = header
        self.codec = get_codec(header.codec)
        self._fd: Optional[int] = fd

    # -- geometry ------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Logical row count."""
        return self.header.rows

    @property
    def cols(self) -> int:
        """Column count."""
        return self.header.cols

    @property
    def dtype(self) -> np.dtype:
        """The logical dtype reads are served in."""
        return self.header.dtype

    def blocks_for(self, start: int, stop: int) -> range:
        """Indices of the blocks overlapping rows ``[start, stop)``."""
        start = max(0, start)
        stop = min(self.header.rows, stop)
        if stop <= start:
            return range(0)
        return range(start // self.header.block_rows,
                     (stop - 1) // self.header.block_rows + 1)

    # -- fetch (I/O) ---------------------------------------------------------

    def _pread(self, offset: int, length: int) -> bytes:
        fd = self._fd
        if fd is None:
            raise RuntimeError(f"reader for {self.path} is closed")
        maybe_fire("read.pread", str(self.path))
        payload = os.pread(fd, length, offset)
        if len(payload) != length:
            raise ValueError(
                f"{self.path} is truncated: wanted {length} bytes at offset "
                f"{offset}, got {len(payload)}"
            )
        return payload

    def fetch_block(self, index: int) -> BlockPayload:
        """Fetch the coded payload(s) of block ``index`` (I/O only, no decode)."""
        block = self.header.blocks[index]
        payloads = tuple(
            self._pread(segment[0], segment[1]) for segment in block.segments
        )
        return BlockPayload(
            index=index, payloads=payloads, compressed_bytes=block.coded_bytes
        )

    def fetch_coded_block(self, index: int) -> CodedBlock:
        """Row-layout block ``index`` as stored, CRC-checked but never decoded.

        For a writer that places the block verbatim in another file
        (:meth:`BlockedMatrixWriter.write_coded_block`).  The payload is
        verified the way a decode would verify it, so corrupt bytes raise
        :class:`ChecksumError` here instead of travelling on under a fresh
        trailer; a legacy column-layout block, which no writer places, is
        refused.
        """
        block = self.header.blocks[index]
        segment = block.segments[0]
        if self.header.layout == "column":
            raise ValueError(
                f"{self.path}: block {index} is not a checksummed row-layout "
                f"block and cannot be copied verbatim; decode and re-encode it"
            )
        (payload,) = self.fetch_block(index).payloads
        self._verify_segment(payload, segment, index, 0)
        return CodedBlock(rows=block.rows, segment=(payload, segment[2], segment[3]))

    # -- decode (CPU) --------------------------------------------------------

    def _decode_segment(
        self,
        payload: bytes,
        segment: Segment,
        block_index: int,
        segment_index: int,
    ) -> np.ndarray:
        self._verify_segment(payload, segment, block_index, segment_index)
        raw = self.codec.decode(payload, segment[2])
        return np.frombuffer(raw, dtype=self.header.storage_dtype)

    def _decode_segment_into(
        self,
        payload: bytes,
        segment: Segment,
        block_index: int,
        segment_index: int,
        out: memoryview,
    ) -> None:
        """CRC-check one payload, then decode it into ``out`` (its raw size)."""
        self._verify_segment(payload, segment, block_index, segment_index)
        self.codec.decode_into(payload, out)

    def _verify_segment(
        self,
        payload: bytes,
        segment: Segment,
        block_index: int,
        segment_index: int,
    ) -> None:
        """CRC-check one coded payload before it reaches the codec.

        Verifying the *coded* bytes catches on-disk corruption before decode
        ever runs.
        """
        crc = segment[3]
        computed = zlib.crc32(payload)
        if computed != crc:
            raise ChecksumError(
                f"{self.path}: block {block_index} segment {segment_index} "
                f"CRC mismatch (stored {crc:#010x}, computed {computed:#010x})"
            )

    def decode_block_into(
        self,
        fetched: BlockPayload,
        lo: int,
        hi: int,
        out: np.ndarray,
        out_offset: int = 0,
    ) -> None:
        """Decode global rows ``[lo, hi)`` of a fetched block into ``out``.

        ``out`` is a 2-D array in the *logical* dtype: decoded storage values
        are cast on the copy, so a float32-on-disk dataset streams float64 to
        consumers without an intermediate full-block logical array.  A whole
        row-layout block stored in ``out``'s dtype, landing in a C-contiguous
        band of ``out``, is decoded straight into it by the codec instead.
        """
        block = self.header.blocks[fetched.index]
        lo = max(lo, block.start_row)
        hi = min(hi, block.stop_row)
        if hi <= lo:
            return
        local = slice(lo - block.start_row, hi - block.start_row)
        dest = out[out_offset : out_offset + (hi - lo)]
        if self.header.layout == "row":
            payload, segment = fetched.payloads[0], block.segments[0]
            if (
                hi - lo == block.rows
                and dest.dtype == self.header.storage_dtype
                and dest.flags.c_contiguous
                and dest.nbytes == segment[2]
            ):
                self._decode_segment_into(
                    payload, segment, fetched.index, 0, memoryview(dest).cast("B")
                )
                return
            values = self._decode_segment(
                payload, segment, fetched.index, 0
            ).reshape(block.rows, self.header.cols)
            np.copyto(dest, values[local], casting="unsafe")
        else:  # the legacy column layout, read only by m3 convert
            for col in range(self.header.cols):
                values = self._decode_segment(
                    fetched.payloads[col], block.segments[col], fetched.index, col
                )
                np.copyto(dest[:, col], values[local], casting="unsafe")

    # -- composed reads ------------------------------------------------------

    def read_rows_into(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Fetch + decode rows ``[start, stop)`` into preallocated ``out``."""
        start = max(0, start)
        stop = min(self.header.rows, stop)
        rows = max(0, stop - start)
        if out.ndim != 2 or out.shape[0] < rows or out.shape[1] != self.header.cols:
            raise ValueError(
                f"output buffer of shape {out.shape} cannot hold {rows} rows "
                f"of {self.header.cols} columns"
            )
        for index in self.blocks_for(start, stop):
            fetched = self.fetch_block(index)
            block = self.header.blocks[index]
            lo = max(start, block.start_row)
            self.decode_block_into(fetched, start, stop, out, out_offset=lo - start)
        return out[:rows]

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Fetch + decode rows ``[start, stop)`` into a fresh logical array."""
        rows = max(0, min(self.header.rows, stop) - max(0, start))
        out = np.empty((rows, self.header.cols), dtype=self.header.dtype)
        return self.read_rows_into(start, stop, out)

    def __getitem__(self, rows: slice) -> np.ndarray:
        """``reader[lo:hi]`` is :meth:`read_rows`: a reader slices like an array."""
        return self.read_rows(rows.start, rows.stop)

    def read_labels(self) -> Optional[np.ndarray]:
        """Decode the label vector (``None`` for unlabelled files)."""
        segment = self.header.label_segment
        if segment is None:
            return None
        offset, coded, raw_bytes, crc = segment
        payload = self._pread(offset, coded)
        computed = zlib.crc32(payload)
        if computed != crc:
            raise ChecksumError(
                f"{self.path}: label segment CRC mismatch (stored "
                f"{crc:#010x}, computed {computed:#010x})"
            )
        raw = self.codec.decode(payload, raw_bytes)
        return np.frombuffer(raw, dtype=np.int64).copy()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the file descriptor."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def __enter__(self) -> "BlockedMatrixReader":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        h = self.header
        return (
            f"BlockedMatrixReader(rows={h.rows}, cols={h.cols}, codec={h.codec!r}, "
            f"block_rows={h.block_rows}, layout={h.layout!r}, path={str(self.path)!r})"
        )


def verify_blocked_file(path: Union[str, Path]) -> List[str]:
    """Scrub every segment of a blocked file: fetch, CRC-check, decode.

    Returns a list of human-readable problem strings (empty means clean).
    The scrub keeps going after the first bad block so one pass reports
    every corrupt region; errors that make the file unreadable at all
    (bad magic, torn trailer) yield a single entry.  Every segment decodes
    into one scratch buffer reused across blocks.
    """
    path = Path(path)
    problems: List[str] = []
    try:
        reader = BlockedMatrixReader(path)
    except (ChecksumError, ValueError, OSError) as error:
        return [f"{path}: unreadable: {error}"]
    with reader:
        header = reader.header
        scratch = memoryview(bytearray(max(
            (segment[2] for block in header.blocks for segment in block.segments),
            default=0,
        )))
        for index, block in enumerate(header.blocks):
            try:
                fetched = reader.fetch_block(index)
            except (ChecksumError, ValueError, OSError) as error:
                problems.append(f"{path}: block {index}: fetch failed: {error}")
                continue
            for position, segment in enumerate(block.segments):
                try:
                    reader._decode_segment_into(
                        fetched.payloads[position], segment, index, position,
                        scratch[: segment[2]],
                    )
                except (ChecksumError, ValueError, OSError) as error:
                    message = str(error)
                    if str(path) not in message:
                        message = f"{path}: {message}"
                    problems.append(message)
        if header.label_segment is not None:
            try:
                reader.read_labels()
            except (ChecksumError, ValueError, OSError) as error:
                problems.append(f"{path}: labels: {error}")
    return problems
