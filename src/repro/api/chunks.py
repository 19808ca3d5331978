"""The chunk pipeline: shard-aligned row blocks with background prefetch.

The paper's core claim (M3) is that out-of-core training can run at in-memory
speed because ML access patterns are sequential scans the OS can stream ahead
of the compute.  This module makes that overlap *explicit* instead of relying
on the kernel alone:

* :class:`ChunkPlan` — the schedule: a sequence of ``(start, stop)`` row
  bounds covering the matrix, optionally split at shard boundaries (so every
  chunk of a mapped :class:`~repro.api.sharded.ShardedMatrix` is a zero-copy
  view of one shard's memmap) and optionally *ramped* — starting with a small
  window that doubles chunk over chunk, the same warm-up discipline as
  :class:`~repro.vmem.readahead.AdaptiveReadAhead`.
* :class:`ChunkStream` — the one executor: an ordered map
  (:func:`repro.fanout.map_ordered`) of one read step over the plan, whose
  reader threads read upcoming chunks while the consumer gets them back in
  plan order as :class:`Chunk` blocks carrying ``(X, y)``; a
  :class:`ChunkBufferPool` of preallocated arrays absorbs the chunks that
  need stitching or decoding (a reader of decoded shards inflates what it
  fetches straight into one) so steady-state streaming performs zero
  per-chunk allocations.  One reader with a window of 2 (the default) is classic
  double buffering — chunk *k+1* is read while the consumer trains on chunk
  *k*; with no reader at all (``prefetch=False``) the consumer runs the same
  read step inline.  Shard-aligned chunks that resolve to contiguous memmap
  views are emitted zero-copy under every reader count.  Per-chunk read,
  wait and compute times are recorded in a :class:`ChunkStreamStats` so the
  I/O-compute overlap is measurable, not assumed.
* :class:`ReadaheadHinter` — OS readahead hints per upcoming chunk:
  ``mmap.madvise(SEQUENTIAL/WILLNEED/DONTNEED)`` on shard memmaps, falling
  back to ``os.posix_fadvise`` on the raw files, and to a graceful no-op on
  platforms offering neither and on decoded shards, which have no mapping.
  Applied hint counts land in :class:`ChunkStreamStats`.

Estimators never see any of this: the :class:`~repro.api.engines.StreamingEngine`
drives their ``partial_fit`` with the chunks this module produces for training,
and their per-chunk ``predict``/``predict_proba`` (via
:class:`~repro.ml.base.StreamingPredictor`) with the same chunks for serving.
"""

from __future__ import annotations

import itertools
import mmap as _mmap
import os
import queue
import threading
import time
import weakref
from bisect import bisect_right
from collections import deque
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.runtime import LEASES
from repro.faults import InjectedFault, maybe_fire, policy_for
from repro.api.sharded import ShardedLabels, ShardedMatrix
from repro.fanout import COMPUTE_THREAD_PREFIX, DeadlineExceeded, map_ordered

DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024
"""Target bytes per chunk when no explicit ``chunk_rows`` is given."""

INITIAL_CHUNK_BYTES = 1024 * 1024
"""First-chunk target for the adaptive ramp (doubles up to the full window)."""

#: Maximum per-chunk timing samples kept in :class:`ChunkStreamStats`.
MAX_TIMING_SAMPLES = 4096

DEFAULT_STALL_TIMEOUT_S = 30.0
"""How long a consumer waits on a missing chunk before declaring the stream
stalled.  Generous — orders of magnitude above any healthy read — because its
job is to convert a *dead* producer (hung device, wedged reader thread) into a
diagnosable :class:`ChunkStreamError` instead of an eternal hang."""

_stream_numbers = itertools.count()  # names each stream's readers apart


class ChunkStreamError(RuntimeError):
    """A chunk stream's read failed or stalled.

    Raised on the consumer side of :class:`ChunkStream`, chained
    (``raise ... from``) to the reader's original exception so both the
    consumer call site and the failing read's stack appear in the traceback.
    """


def _unwrap(matrix: Any) -> Any:
    """Peel :class:`~repro.api.Dataset` / ``MmapMatrix`` wrappers, if any."""
    inner = getattr(matrix, "matrix", None)  # Dataset -> MmapMatrix
    if inner is not None:
        matrix = inner
    backing = getattr(matrix, "backing", None)  # MmapMatrix -> raw storage
    return backing if backing is not None else matrix


def shard_row_starts(matrix: Any) -> Tuple[int, ...]:
    """Global start rows of the shards behind ``matrix`` (empty if unsharded)."""
    backing = _unwrap(matrix)
    if isinstance(backing, ShardedMatrix):
        return tuple(shard.start_row for shard in backing.manifest.shards)
    return ()


def matrix_generation(matrix: Any) -> Optional[int]:
    """Manifest generation behind ``matrix`` (``None`` for unversioned storage).

    Sharded matrices are immutable snapshots of one committed generation;
    everything else (ndarray, plain memmap) has no generation to pin.
    """
    backing = _unwrap(matrix)
    if isinstance(backing, ShardedMatrix):
        return int(backing.generation)
    return None


def compressed_backing(matrix: Any) -> Optional[ShardedMatrix]:
    """The decoded (not mapped) :class:`ShardedMatrix` behind ``matrix``.

    ``None`` for anything else.  Non-``None`` makes each reader of a
    threaded stream fetch a chunk's coded payloads, then decompress them
    into a pooled buffer itself.
    """
    backing = _unwrap(matrix)
    if isinstance(backing, ShardedMatrix) and not backing.mapped:
        return backing
    return None


def _physical_ram_bytes() -> int:
    """Physical RAM in bytes, or a huge sentinel when the platform can't say.

    Gates the auto mode of releasing page cache behind the scan cursor: only
    scans larger than RAM benefit (smaller scans *want* their pages kept for
    the next pass), so an unknown RAM size means the auto mode stays off.
    """
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page > 0:
            return pages * page
    except (ValueError, OSError, AttributeError):
        pass
    return 1 << 62


def _range_straddles(cuts: np.ndarray, start: int, stop: int) -> bool:
    """Whether rows ``[start, stop)`` cross any shard boundary in ``cuts``.

    The one definition of the stitching predicate: pool sizing and the
    reader's copy-vs-view decision must always agree on it.
    """
    if cuts.size == 0:
        return False
    return bool(np.any((cuts > start) & (cuts < stop)))


@dataclass(frozen=True)
class ChunkPlan:
    """A schedule of row chunks over a matrix of known geometry.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix shape.
    chunk_rows:
        The steady-state window size in rows (the final chunk, ramp-up
        chunks, and shard-boundary fragments may be smaller).
    bounds:
        The exact ``(start, stop)`` pairs, in order, tiling ``[0, n_rows)``.
    row_bytes:
        Bytes per row (for I/O accounting).
    aligned:
        Whether bounds were split so no chunk crosses a shard boundary.
    generation:
        The manifest generation the plan was computed against, for sharded
        matrices (``None`` for unversioned storage).  Executors refuse to run
        a plan against a matrix of a different generation, so a stream is
        provably reading the exact snapshot its bounds were derived from —
        concurrent appends commit new generations and cannot shift rows under
        an in-flight plan.
    """

    n_rows: int
    n_cols: int
    chunk_rows: int
    bounds: Tuple[Tuple[int, int], ...]
    row_bytes: int
    aligned: bool = False
    generation: Optional[int] = None

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the plan."""
        return len(self.bounds)

    @property
    def total_bytes(self) -> int:
        """Bytes in the whole matrix."""
        return self.n_rows * self.row_bytes

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.bounds)


def _ramp_bounds(n_rows: int, chunk_rows: int, initial_rows: int) -> List[Tuple[int, int]]:
    """Bounds that double from ``initial_rows`` up to ``chunk_rows``.

    This reuses the :class:`~repro.vmem.readahead.AdaptiveReadAhead` window
    discipline: start small so the first ``partial_fit`` happens after one
    cheap read, double while the scan stays sequential (it always does here),
    cap at the steady-state window.
    """
    bounds: List[Tuple[int, int]] = []
    window = max(1, min(initial_rows, chunk_rows))
    start = 0
    while start < n_rows:
        stop = min(start + window, n_rows)
        bounds.append((start, stop))
        start = stop
        window = min(window * 2, chunk_rows)
    return bounds


def plan_chunks(
    matrix: Any,
    chunk_rows: Optional[int] = None,
    align_shards: bool = True,
    row_range: Optional[Tuple[int, int]] = None,
) -> ChunkPlan:
    """Build a :class:`ChunkPlan` for any 2-D matrix-like object.

    Parameters
    ----------
    matrix:
        Anything with ``shape`` and ``dtype`` — ndarray, memmap,
        ``MmapMatrix``, ``ShardedMatrix`` or a ``Dataset``.
    chunk_rows:
        Steady-state rows per chunk.  ``None`` sizes the window to
        :data:`DEFAULT_CHUNK_BYTES` and ramps up to it: the first chunk
        targets :data:`INITIAL_CHUNK_BYTES` and each next one doubles.  An
        explicit value tiles the rows uniformly, no ramp.
    align_shards:
        Split chunks at shard boundaries so each chunk is served as a
        zero-copy single-shard view.
    row_range:
        Plan only rows ``[lo, hi)`` instead of the whole matrix.  Bounds
        stay *absolute* row indices, so chunks slice the matrix (and the
        full-length label vector) at their true positions — this is how the
        trainer daemon scans exactly the delta rows a new generation
        appended.  ``plan.n_rows`` still reports the full matrix height.
    """
    if not hasattr(matrix, "shape") or len(matrix.shape) != 2:
        raise ValueError("matrix must be 2-D")
    n_rows, n_cols = int(matrix.shape[0]), int(matrix.shape[1])
    row_bytes = n_cols * np.dtype(matrix.dtype).itemsize
    lo, hi = (0, n_rows) if row_range is None else (int(row_range[0]), int(row_range[1]))
    if not 0 <= lo <= hi <= n_rows:
        raise ValueError(
            f"row_range {row_range} out of bounds for a matrix of {n_rows} rows"
        )
    span = hi - lo
    adaptive = chunk_rows is None
    if adaptive:
        chunk_rows = max(1, DEFAULT_CHUNK_BYTES // max(row_bytes, 1))
    elif chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    chunk_rows = max(1, min(chunk_rows, max(span, 1)))

    if adaptive:
        initial_rows = max(1, min(chunk_rows, INITIAL_CHUNK_BYTES // max(row_bytes, 1)))
        raw = [(lo + a, lo + b) for a, b in _ramp_bounds(span, chunk_rows, initial_rows)]
    else:
        raw = [(start, min(start + chunk_rows, hi)) for start in range(lo, hi, chunk_rows)]

    starts = shard_row_starts(matrix) if align_shards else ()
    aligned = bool(starts)
    if aligned:
        cuts = np.asarray(starts, dtype=np.int64)
        bounds: List[Tuple[int, int]] = []
        for start, stop in raw:
            # Split [start, stop) at every shard start strictly inside it.
            inner = cuts[(cuts > start) & (cuts < stop)]
            edges = [start, *[int(c) for c in inner], stop]
            bounds.extend(zip(edges[:-1], edges[1:]))
    else:
        bounds = raw

    return ChunkPlan(
        n_rows=n_rows,
        n_cols=n_cols,
        chunk_rows=chunk_rows,
        bounds=tuple(bounds),
        row_bytes=row_bytes,
        aligned=aligned,
        generation=matrix_generation(matrix),
    )


@dataclass(frozen=True)
class Chunk:
    """One row block of the stream: matrix rows plus the matching labels.

    Ownership: a chunk either *owns* its arrays or *leases* them.

    * Chunks of an inline stream (``prefetch=False``) and zero-copy views of
      any stream are owned: they carry no lease, stay valid for as long as
      the consumer keeps them (``list(stream)`` is legal), and
      :meth:`release` is a no-op.
    * A threaded stream serves stitched and decoded chunks out of its
      :class:`ChunkBufferPool`; such a chunk carries the buffer ``lease``
      backing its arrays and the consumer must :meth:`release` it when done,
      or the ring runs dry and the stream stalls (the stall error counts the
      unreleased buffers).

    Releasing unconditionally is always correct, so consumers need not know
    which kind they hold.
    """

    index: int
    start: int
    stop: int
    X: Any
    y: Optional[np.ndarray] = None
    read_s: float = 0.0
    #: Time spent decompressing the chunk's blocks (compressed streams only).
    decode_s: float = 0.0
    #: Coded bytes fetched for the chunk (0 for raw streams).
    compressed_bytes: int = 0
    lease: Optional["BufferLease"] = None

    @property
    def rows(self) -> int:
        """Number of rows in the chunk."""
        return self.stop - self.start

    def release(self) -> None:
        """Return the backing buffer to its pool (no-op for views)."""
        if self.lease is not None:
            self.lease.release()


@dataclass
class ChunkStreamStats:
    """Aggregated (and sampled per-chunk) timing of one chunk stream.

    ``read_s`` is producer time spent materialising chunks; ``io_wait_s`` is
    consumer time blocked waiting for a chunk (with prefetch, reads that
    overlap compute do not show up here); ``compute_s`` is consumer time
    between chunk deliveries — the training work the reads hide behind.
    """

    chunks: int = 0
    rows: int = 0
    bytes_read: int = 0
    read_s: float = 0.0
    io_wait_s: float = 0.0
    compute_s: float = 0.0
    #: Time spent decompressing blocks (0 for raw streams); readers decode
    #: after their fetch, so it overlaps consumer compute and other reads.
    decode_s: float = 0.0
    #: Coded bytes actually fetched from storage (0 for raw streams);
    #: ``bytes_read`` stays the *logical* byte count either way.
    compressed_bytes: int = 0
    prefetched: bool = False
    #: OS readahead hints (madvise/posix_fadvise) successfully applied.
    hints_applied: int = 0
    #: ``dont_need`` hints applied behind the scan cursor (pages released).
    hints_released: int = 0
    #: Read attempts that failed and were retried under the stream's
    #: :class:`~repro.faults.RetryPolicy` (0 on a healthy device).
    retries: int = 0
    #: Retried errors that were injected by an active fault plan — lets a
    #: chaos run tell deliberate faults apart from real device trouble.
    faults_injected: int = 0
    #: Per-chunk ``(read_s, wait_s, compute_s)`` samples — the most recent
    #: :data:`MAX_TIMING_SAMPLES`, so a long scan reports how it runs now.
    samples: "deque[Tuple[float, float, float]]" = field(
        default_factory=lambda: deque(maxlen=MAX_TIMING_SAMPLES)
    )

    def record(
        self,
        read_s: float,
        wait_s: float,
        compute_s: float,
        rows: int,
        nbytes: int,
        decode_s: float = 0.0,
        compressed_bytes: int = 0,
    ) -> None:
        """Fold one chunk's timings into the aggregate."""
        self.chunks += 1
        self.rows += rows
        self.bytes_read += nbytes
        self.read_s += read_s
        self.io_wait_s += wait_s
        self.compute_s += compute_s
        self.decode_s += decode_s
        self.compressed_bytes += compressed_bytes
        self.samples.append((read_s, wait_s, compute_s))

    def record_trailing_compute(self, compute_s: float) -> None:
        """Attribute the time after the last delivery to the last chunk.

        Compute time is measured *between* deliveries, so the work done on
        the final chunk only becomes visible when the stream reports
        exhaustion — without this, a single-chunk stream would claim zero
        compute.
        """
        if self.chunks == 0 or compute_s <= 0.0:
            return
        self.compute_s += compute_s
        if self.samples:
            read_s, wait_s, prior = self.samples[-1]
            self.samples[-1] = (read_s, wait_s, prior + compute_s)

    def record_hints(self, count: int) -> None:
        """Fold ``count`` successfully applied OS readahead hints in."""
        if count > 0:
            self.hints_applied += count

    def record_released(self, count: int) -> None:
        """Fold ``count`` applied behind-the-cursor ``dont_need`` hints in."""
        if count > 0:
            self.hints_released += count

    def merge(self, other: "ChunkStreamStats") -> None:
        """Fold another stream's aggregate (e.g. one training pass) into this."""
        self.chunks += other.chunks
        self.rows += other.rows
        self.bytes_read += other.bytes_read
        self.read_s += other.read_s
        self.io_wait_s += other.io_wait_s
        self.compute_s += other.compute_s
        self.decode_s += other.decode_s
        self.compressed_bytes += other.compressed_bytes
        self.hints_applied += other.hints_applied
        self.hints_released += other.hints_released
        self.retries += other.retries
        self.faults_injected += other.faults_injected
        self.prefetched = self.prefetched or other.prefetched
        self.samples.extend(other.samples)

    @property
    def io_overlap(self) -> Optional[float]:
        """Fraction of read time hidden behind compute: ``1 - wait/read``.

        1.0 means every byte was prefetched before the consumer asked for it;
        0.0 means the stream was fully synchronous.  ``None`` means the stream
        recorded no read time at all — there was nothing to hide, which is not
        the same thing as hiding everything (a stream that never read a byte
        must not report itself as perfectly prefetched).
        """
        if self.read_s <= 0.0:
            return None
        return max(0.0, min(1.0, 1.0 - self.io_wait_s / self.read_s))

    @property
    def ratio(self) -> Optional[float]:
        """Logical-to-coded byte ratio of the stream (``None`` for raw)."""
        if self.compressed_bytes <= 0:
            return None
        return self.bytes_read / self.compressed_bytes

    def as_dict(self) -> dict:
        """JSON-friendly summary (no per-chunk samples)."""
        return {
            "chunks": self.chunks,
            "rows": self.rows,
            "bytes_read": self.bytes_read,
            "read_s": self.read_s,
            "io_wait_s": self.io_wait_s,
            "compute_s": self.compute_s,
            "decode_s": self.decode_s,
            "compressed_bytes": self.compressed_bytes,
            "ratio": self.ratio,
            "io_overlap": self.io_overlap,
            "prefetched": self.prefetched,
            "hints_applied": self.hints_applied,
            "hints_released": self.hints_released,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
        }


class BufferLease:
    """One leased ``(X, y)`` buffer pair of a :class:`ChunkBufferPool`.

    A lease has exactly one releaser at a time: the consumer of the chunk it
    backs, or the stream that discards or abandons that chunk.  The pool
    hands it out held; :meth:`release` returns the buffer to the pool's free
    ring.  Releasing a lease that is not held raises — a double release
    would alias one buffer between two in-flight chunks.
    """

    __slots__ = ("X", "y", "_pool", "_held", "_served")

    def __init__(self, pool: "ChunkBufferPool", X: np.ndarray, y: Optional[np.ndarray]) -> None:
        self._pool = pool
        self.X = X
        self.y = y
        self._held = False
        #: Times this buffer was leased.  Only the thread that just took the
        #: lease off the free ring writes it, so no two threads ever do.
        self._served = 0

    def _activate(self) -> "BufferLease":
        self._held = True
        self._served += 1
        if LEASES.enabled:
            LEASES.activated(self)
        return self

    def release(self) -> None:
        """Return the buffer to the pool."""
        if not self._held:
            raise RuntimeError("buffer lease released more than once")
        self._held = False
        if LEASES.enabled:
            LEASES.released(self)
        self._pool._return(self)


class ChunkBufferPool:
    """A ring of preallocated chunk buffers, leased to in-flight chunks.

    A threaded stream's readers copy *stitched* chunks (the ones that straddle
    a shard boundary, which a zero-copy view cannot serve) and decode coded
    ones into buffers from this ring instead of allocating a fresh array per
    chunk, so steady-state streaming performs zero per-chunk allocations:
    peak memory is bounded by ``buffers × chunk bytes`` regardless of how
    many chunks flow through.  Several readers lease at once; the free ring
    is a thread-safe queue, and all other state is per lease, written only
    by the thread that holds it (:attr:`leases_served` sums it).

    Parameters
    ----------
    buffers:
        Number of ``(X, y)`` buffer pairs in the ring.
    chunk_rows:
        Capacity of each buffer in rows (the plan's steady-state window).
    n_cols, dtype:
        Matrix geometry the ``X`` buffers are allocated with.
    label_dtype:
        Dtype of the ``y`` buffers; ``None`` for unlabelled streams.
    """

    def __init__(
        self,
        buffers: int,
        chunk_rows: int,
        n_cols: int,
        dtype: Any,
        label_dtype: Optional[Any] = None,
    ) -> None:
        if buffers < 1:
            raise ValueError(f"buffer pool needs at least 1 buffer, got {buffers}")
        if chunk_rows < 1 or n_cols < 1:
            raise ValueError(
                f"buffer geometry must be positive, got ({chunk_rows}, {n_cols})"
            )
        self.buffers = buffers
        self.chunk_rows = chunk_rows
        self.n_cols = n_cols
        self.dtype = np.dtype(dtype)
        self.label_dtype = None if label_dtype is None else np.dtype(label_dtype)
        self._leases = [
            BufferLease(
                self,
                np.empty((chunk_rows, n_cols), dtype=self.dtype),
                None if self.label_dtype is None else np.empty(chunk_rows, dtype=self.label_dtype),
            )
            for _ in range(buffers)
        ]
        self._free: "queue.Queue[BufferLease]" = queue.Queue()
        for lease in self._leases:
            self._free.put(lease)

    @property
    def nbytes(self) -> int:
        """Total bytes preallocated by the ring (the steady-state bound)."""
        per_x = self.chunk_rows * self.n_cols * self.dtype.itemsize
        per_y = 0 if self.label_dtype is None else self.chunk_rows * self.label_dtype.itemsize
        return self.buffers * (per_x + per_y)

    @property
    def available(self) -> int:
        """Buffers currently sitting in the free ring."""
        return self._free.qsize()

    @property
    def leases_served(self) -> int:
        """Leases handed out so far, summed over the ring's buffers."""
        return sum(lease._served for lease in self._leases)

    def lease(self, stop: Optional[threading.Event] = None) -> Optional[BufferLease]:
        """Take a buffer from the ring, blocking until one is free.

        Returns ``None`` instead of blocking forever when ``stop`` is set —
        a stream being closed must not deadlock on an exhausted ring.
        """
        maybe_fire("pool.lease")
        while True:
            try:
                lease = self._free.get(timeout=0.05)
            except queue.Empty:
                if stop is not None and stop.is_set():
                    return None
                continue
            return lease._activate()

    def _return(self, lease: BufferLease) -> None:
        self._free.put(lease)


_MADVISE_OPTIONS = {
    "sequential": ("MADV_SEQUENTIAL", "POSIX_FADV_SEQUENTIAL"),
    "willneed": ("MADV_WILLNEED", "POSIX_FADV_WILLNEED"),
    "dontneed": ("MADV_DONTNEED", "POSIX_FADV_DONTNEED"),
}


@dataclass
class _HintSegment:
    """One hintable storage segment: a row range backed by one mapped file."""

    start_row: int
    stop_row: int
    row_bytes: int
    mm: Any  # the shard's mmap object (or None)
    array_offset: int  # byte offset of row start_row in mm
    file_offset: int  # byte offset of row start_row on disk
    path: Optional[Path]  # backing file for the fadvise fallback


class ReadaheadHinter:
    """Issues OS readahead hints for upcoming (or consumed) chunk ranges.

    The paper's thesis is that the kernel already streams sequential scans
    well; this class tells the kernel *explicitly* what the chunk plan is
    about to do, which is the engine-level analogue of
    :class:`~repro.vmem.readahead.AdaptiveReadAhead` growing its window:

    * :meth:`advise_sequential` — once per stream, marks the mapping of every
      shard the stream will touch ``MADV_SEQUENTIAL`` so kernel readahead
      ramps aggressively;
    * :meth:`will_need` — per upcoming chunk, asks the kernel to start the
      read *now* (``MADV_WILLNEED`` is asynchronous, so the call returns
      immediately while the device works);
    * :meth:`dont_need` — per consumed chunk, releases page cache behind a
      strictly-forward scan.

    Every call degrades gracefully: ``mmap.madvise`` first, then
    ``os.posix_fadvise`` against the backing file, then a counted no-op on
    platforms (or backings, e.g. plain in-memory arrays) that support
    neither.  Each call returns the number of hints it applied, which the
    stream folds into its :class:`ChunkStreamStats`; the hinter keeps no
    running total.  Reader threads hint concurrently: the only state they
    share is the fadvise fallback's descriptors, each opened once per file.
    """

    def __init__(self, matrix: Any, rows: Optional[Tuple[int, int]] = None) -> None:
        #: Segment start row -> descriptor of its file, for the fadvise
        #: fallback, opened at its first use.
        self._fds: Dict[int, int] = {}
        try:
            self._segments = self._resolve_segments(_unwrap(matrix), rows)
        except Exception:  # noqa: BLE001 — an unhintable matrix is a no-op, not an error
            self._segments = []
        self._starts = [segment.start_row for segment in self._segments]

    @staticmethod
    def _resolve_segments(
        backing: Any, rows: Optional[Tuple[int, int]]
    ) -> List[_HintSegment]:
        """Hintable segments overlapping ``rows`` (every segment when ``None``).

        A stream hints only the rows its plan covers: a delta scan over the
        tail of a many-shard dataset must not ``madvise`` every other shard.
        Decoded shards are read with ``pread``, not mapped: they have none.
        """
        def segment(data: np.memmap, start_row: int, path: Optional[Path]) -> _HintSegment:
            offset = int(getattr(data, "offset", 0))
            name = getattr(data, "filename", None)
            return _HintSegment(
                start_row=start_row,
                stop_row=start_row + int(data.shape[0]),
                row_bytes=int(data.shape[1]) * data.dtype.itemsize,
                mm=getattr(data, "_mmap", None),
                # numpy maps from the nearest allocation-granularity boundary
                # below ``offset``; the array's bytes start this far into the
                # mmap buffer.
                array_offset=offset % _mmap.ALLOCATIONGRANULARITY,
                file_offset=offset,
                path=Path(name) if name is not None else path,
            )

        if isinstance(backing, ShardedMatrix) and backing.mapped:
            return [
                segment(data, shard.start_row, backing.directory / shard.filename)
                for shard, data in zip(backing.manifest.shards, backing._maps)
                if rows is None
                or (shard.stop_row > rows[0] and shard.start_row < rows[1])
            ]
        if isinstance(backing, np.memmap):
            return [segment(backing, 0, None)]
        return []

    @property
    def supported(self) -> bool:
        """Whether the matrix resolved to at least one hintable segment."""
        return bool(self._segments)

    def advise_sequential(self) -> int:
        """Mark every segment's whole mapping sequential; returns hints applied."""
        applied = 0
        for segment in self._segments:
            applied += self._advise(segment, "sequential", 0, None)
        return applied

    def will_need(self, start: int, stop: int) -> int:
        """Ask the kernel to read rows ``[start, stop)`` ahead of the consumer."""
        return self._advise_range(start, stop, "willneed")

    def dont_need(self, start: int, stop: int) -> int:
        """Release cache for consumed rows ``[start, stop)`` (forward scans)."""
        return self._advise_range(start, stop, "dontneed")

    def _advise_range(self, start: int, stop: int, kind: str) -> int:
        applied = 0
        # Segments are sorted by start row: begin at the one holding ``start``.
        first = max(0, bisect_right(self._starts, start) - 1)
        for segment in self._segments[first:]:
            if segment.start_row >= stop:
                break
            lo = max(start, segment.start_row)
            hi = min(stop, segment.stop_row)
            if hi <= lo:
                continue
            offset = (lo - segment.start_row) * segment.row_bytes
            length = (hi - lo) * segment.row_bytes
            applied += self._advise(segment, kind, offset, length)
        return applied

    def _advise(self, segment: _HintSegment, kind: str, offset: int, length: Optional[int]) -> int:
        madv_name, fadv_name = _MADVISE_OPTIONS[kind]
        madvised = self._madvise(segment, madv_name, offset, length)
        if madvised and kind != "dontneed":
            return 1
        # MADV_DONTNEED on a shared file mapping only unmaps this process's
        # pages; the page cache lets them go only on a file-level fadvise.
        fadvised = self._fadvise(segment, fadv_name, offset, length)
        return int(madvised or fadvised)

    @staticmethod
    def _madvise(segment: _HintSegment, option_name: str, offset: int, length: Optional[int]) -> bool:
        mm = segment.mm
        option = getattr(_mmap, option_name, None)
        if mm is None or option is None or not hasattr(mm, "madvise"):
            return False
        try:
            if length is None:  # whole mapping
                mm.madvise(option)
                return True
            page = _mmap.PAGESIZE
            raw = segment.array_offset + offset
            aligned = (raw // page) * page
            span = min(length + (raw - aligned), len(mm) - aligned)
            if span <= 0:
                return False
            mm.madvise(option, aligned, span)
            return True
        except (AttributeError, OSError, OverflowError, ValueError):
            return False

    def _fadvise(self, segment: _HintSegment, option_name: str, offset: int, length: Optional[int]) -> bool:
        option = getattr(os, option_name, None)
        fadvise = getattr(os, "posix_fadvise", None)
        if option is None or fadvise is None or segment.path is None:
            return False
        try:
            fadvise(self._fd(segment), segment.file_offset + offset, length or 0, option)
            return True
        except OSError:
            return False

    def _fd(self, segment: _HintSegment) -> int:
        """The descriptor of ``segment``'s file, opened at the first call.

        Two readers may both miss and open the file; ``setdefault`` on an
        int key is one atomic step, so one descriptor is kept and the other
        closed at once, never leaked.
        """
        fd = self._fds.get(segment.start_row)
        if fd is None:
            opened = os.open(str(segment.path), os.O_RDONLY)
            fd = self._fds.setdefault(segment.start_row, opened)
            if fd != opened:
                os.close(opened)
        return fd

    def close(self) -> None:
        """Close any file descriptors opened for the fadvise fallback."""
        while self._fds:
            try:
                os.close(self._fds.popitem()[1])
            except OSError:
                pass

    def __enter__(self) -> "ReadaheadHinter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class _Read(NamedTuple):
    """One read step's result: the chunk, and what that read adds to the stats."""

    chunk: Chunk
    hints: int
    retries: int
    faults_injected: int


@dataclass(eq=False)
class _ChunkReader:
    """The read step of a :class:`ChunkStream`: what every reader (or, inline,
    the consumer) runs on one ``(index, (start, stop))`` chunk of the plan.

    Readers reference *this* object, never the stream, so an abandoned stream
    stays collectable while its reads are in flight; collecting it closes its
    :func:`~repro.fanout.map_ordered` generator and stops this read step.
    """

    matrix: Any
    labels: Optional[Any]
    plan: ChunkPlan
    cuts: np.ndarray
    pool: Optional[ChunkBufferPool]
    hinter: Optional[ReadaheadHinter]
    readers: InitVar[int]
    compressed: Optional[ShardedMatrix]

    def __post_init__(self, readers: int) -> None:
        #: Set when the stream ends: a read waiting for a buffer gives up, and
        #: a fetched chunk is no longer decoded.
        self.stop = threading.Event()
        #: Per reader: its ordered claims, its accounting, and whether it is
        #: idle (not inside a read).  Each reader writes only its own entries.
        self.reader_log: List[List[Tuple[int, int]]] = [[] for _ in range(readers)]
        self.reader_stats: List[Dict[str, Any]] = [
            {"reader": r, "chunks": 0, "rows": 0, "bytes_read": 0, "read_s": 0.0}
            for r in range(readers)
        ]
        self.idle = [threading.Event() for _ in range(readers)]
        for idle in self.idle:
            idle.set()
        self._numbers = itertools.count()
        self._local = threading.local()

    def _reader(self) -> int:
        """This thread's reader number, taken at its first read."""
        number = getattr(self._local, "number", None)
        if number is None:
            number = self._local.number = next(self._numbers) % len(self.idle)
        return number

    def __call__(self, claim: Tuple[int, Tuple[int, int]]) -> _Read:
        index, (start, stop) = claim
        counts = [0, 0]  # this read's retries, and the injected faults among them

        def on_retry(attempt: int, error: BaseException) -> None:
            counts[0] += 1
            counts[1] += isinstance(error, InjectedFault)

        # The read runs under its site's retry envelope.  A decoded chunk's
        # lease and fetch are retried as a unit: a failed attempt releases
        # everything it held, so each one starts clean.
        decoded = self.compressed is not None
        site = "read.pread" if decoded else "read.gather"
        step = self.fetch_chunk if decoded else self.read_chunk

        def read() -> Chunk:
            return policy_for(site).call(
                lambda: step(index, start, stop), site=site, on_retry=on_retry
            )

        if not self.idle:  # inline: the consumer reads; no reader to account
            return _Read(read(), 0, *counts)
        reader = self._reader()
        acct = self.reader_stats[reader]
        self.reader_log[reader].append((start, stop))
        self.idle[reader].clear()
        try:
            hinted = self.hinter.will_need(start, stop) if self.hinter is not None else 0
            chunk = read()
            acct["chunks"] += 1
            acct["rows"] += chunk.rows
            # Decoding readers account the bytes they actually pulled off
            # storage, not the logical chunk size.
            acct["bytes_read"] += (
                chunk.compressed_bytes if decoded else chunk.rows * self.plan.row_bytes
            )
            acct["read_s"] += chunk.read_s
            if decoded:
                chunk = self.decode(chunk)
        finally:
            self.idle[reader].set()
        return _Read(chunk, hinted, *counts)

    def read_chunk(self, index: int, start: int, stop: int) -> Chunk:
        """Materialise one chunk: zero-copy view when possible, pooled copy otherwise.

        Reads go through whatever object was passed — an
        :class:`~repro.core.mmap_matrix.MmapMatrix` keeps recording its
        access trace, a mapped :class:`~repro.api.sharded.ShardedMatrix`
        serves shard-aligned bounds as zero-copy views (a decoded one decodes
        them), a plain ndarray just slices.
        Labels may be an ndarray, a memmap or a lazy
        :class:`~repro.api.sharded.ShardedLabels` view; they are sliced per
        chunk, never materialised wholesale.
        """
        maybe_fire("read.gather")
        matrix = self.matrix
        labels = self.labels
        began = time.perf_counter()
        lease: Optional[BufferLease] = None
        if self.pool is not None and _range_straddles(self.cuts, start, stop):
            lease = self._lease()
            try:
                X = self._gather_matrix(matrix, start, stop, lease.X)
                y = None
                if labels is not None:
                    y = self._gather_labels(labels, start, stop, lease.y)
            except BaseException:
                # A failed gather (truncated shard, bad dtype) must hand the
                # buffer back before the error propagates, or the pool runs
                # dry and later readers block on a lease that never returns.
                lease.release()
                raise
        else:
            # Shard-aligned (or single-backing) ranges resolve to contiguous
            # zero-copy views — no defensive copy, the consumer reads the
            # mapped pages directly.  With no pool (inline streams) the
            # matrix stitches or decodes into a fresh array the chunk owns.
            X = matrix[start:stop]
            y = None
            if labels is not None:
                y = np.asarray(labels[start:stop])
        read_s = time.perf_counter() - began
        return Chunk(index=index, start=start, stop=stop, X=X, y=y, read_s=read_s, lease=lease)

    def fetch_chunk(self, index: int, start: int, stop: int) -> Chunk:
        """The I/O half of a decoded chunk: lease + fetch payloads + labels.

        The returned chunk holds the lease it will be decoded into, but its
        ``X`` is still the fetched :class:`~repro.api.sharded.CompressedRange`;
        :meth:`decode` turns it into rows.
        """
        labels = self.labels
        began = time.perf_counter()
        lease = self._lease()
        try:
            fetched = self.compressed.fetch_compressed(start, stop)
            y = None
            if labels is not None:
                y = self._gather_labels(labels, start, stop, lease.y)
        except BaseException:
            # A failed fetch must hand the buffer back before the error
            # propagates, or the pool runs dry (same rule as read_chunk).
            lease.release()
            raise
        read_s = time.perf_counter() - began
        record = getattr(self.matrix, "record_read", None)
        if callable(record):
            record(start, stop)
        return Chunk(
            index=index, start=start, stop=stop, X=fetched, y=y, read_s=read_s,
            compressed_bytes=fetched.compressed_bytes, lease=lease,
        )

    def decode(self, fetched: Chunk) -> Chunk:
        """Inflate a fetched chunk into its lease.

        Runs outside the retry envelope: a ``decode.block`` fault or a
        :class:`~repro.data.formats_v2.ChecksumError` fails the stream at
        this chunk, unretried.  A chunk fetched after the stream ended is
        not decoded at all.
        """
        try:
            if self.stop.is_set():
                raise ChunkStreamError("chunk stream ended before the chunk was decoded")
            began = time.perf_counter()
            X = self.compressed.decode_into(fetched.X, fetched.lease.X)
        except BaseException:
            fetched.release()
            raise
        return replace(fetched, X=X, decode_s=time.perf_counter() - began)

    def _lease(self) -> BufferLease:
        lease = self.pool.lease(stop=self.stop)
        if lease is None:  # the stream ended while waiting for a buffer
            raise ChunkStreamError("chunk stream closed while leasing a buffer")
        return lease

    @staticmethod
    def _gather_matrix(matrix: Any, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        backing = _unwrap(matrix)
        if isinstance(backing, ShardedMatrix):
            view = backing.gather_into(start, stop, out)
            record = getattr(matrix, "record_read", None)
            if callable(record):
                record(start, stop)
            return view
        view = out[: stop - start]
        np.copyto(view, matrix[start:stop])
        return view

    @staticmethod
    def _gather_labels(labels: Any, start: int, stop: int, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            return np.asarray(labels[start:stop])
        if isinstance(labels, ShardedLabels):
            return labels.gather_into(start, stop, out)
        view = out[: stop - start]
        np.copyto(view, labels[start:stop])
        return view


class ChunkStream:
    """The chunk executor: an ordered map of one read step over the plan.

    The stream iterates :func:`repro.fanout.map_ordered` over the plan's
    chunks on ``io_workers`` (at least one) reader threads.  Each reader takes the next
    chunk, issues an OS readahead hint for it and materialises it — zero-copy
    when the range resolves to one contiguous memmap view, copied into a
    :class:`ChunkBufferPool` buffer when it must be stitched across shards,
    fetched and then decoded into such a buffer when the shards are decoded.
    The map hands chunks back in exact plan order, so downstream training and
    inference see the identical chunk sequence under every reader count.
    With *zero* readers (an inline stream) the consumer runs the same read
    step itself, one chunk per ``next()``: no thread, no pool, no hinter, and
    ``io_wait == read``.  Readers are the map's ``m3-compute`` threads, so a
    stream iterated on one of those threads reads inline too.

    Build one with :func:`open_chunk_stream`, which documents the options.
    Always close (or exhaust) the stream; it is a context manager, and
    ``close()`` is what stops the readers early.
    """

    def __init__(
        self,
        matrix: Any,
        labels: Optional[Any],
        plan: ChunkPlan,
        prefetch: bool = True,
        io_workers: Optional[int] = None,
        buffer_pool: Optional[ChunkBufferPool] = None,
        hints: bool = True,
        release_behind: Optional[bool] = None,
        decode_workers: Optional[int] = None,
        stall_timeout_s: Optional[float] = DEFAULT_STALL_TIMEOUT_S,
    ) -> None:
        # Snapshot binding: a plan computed against generation g must only
        # ever run against a generation-g matrix.  Appends never mutate a
        # committed generation, so matching generations guarantee every
        # bound in the plan resolves to the same bytes it was derived from.
        if plan.generation is not None:
            live_gen = matrix_generation(matrix)
            if live_gen is not None and live_gen != plan.generation:
                raise ValueError(
                    f"plan was computed against manifest generation {plan.generation} "
                    f"but the matrix is a generation-{live_gen} snapshot; "
                    f"re-plan against the refreshed handle (or open generation "
                    f"{plan.generation} explicitly) before streaming"
                )
        if labels is not None and len(labels) != plan.n_rows:
            raise ValueError(
                f"labels have {len(labels)} entries but the plan covers "
                f"{plan.n_rows} rows"
            )
        if io_workers is not None and io_workers < 1:
            raise ValueError(f"io_workers must be >= 1, got {io_workers}")
        if decode_workers is not None and decode_workers < 1:
            raise ValueError(f"decode_workers must be >= 1, got {decode_workers}")
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive or None, got {stall_timeout_s}"
            )
        self.matrix = matrix
        self.labels = labels
        self.plan = plan
        self.stall_timeout_s = stall_timeout_s
        threaded = prefetch or io_workers is not None
        starts = shard_row_starts(matrix) if threaded else ()
        if not threaded:
            io_workers = 0
        elif io_workers is None:
            io_workers = 1
        compressed = compressed_backing(matrix) if threaded else None
        if compressed is not None and decode_workers is not None:
            # Readers of a decoded stream decode what they fetch, so the
            # larger of the two counts sizes them.
            io_workers = max(int(io_workers), decode_workers)
        #: Reader threads; 0 = inline (the consumer reads).
        self.io_workers = min(int(io_workers), max(plan.num_chunks, 1))
        #: Read-ahead: chunks read while the consumer computes on one, so
        #: every reader can stay busy.
        self.depth = max(2, 2 * self.io_workers) if threaded else 0

        cuts = np.asarray(starts, dtype=np.int64)
        self.pool = (
            self._resolve_pool(buffer_pool, cuts, compressed is not None)
            if threaded
            else None
        )
        if self.pool is not None:
            self.depth = max(1, min(self.depth, self.pool.buffers))
        self.hinter: Optional[ReadaheadHinter] = None
        if hints and threaded:
            span = (plan.bounds[0][0], plan.bounds[-1][1]) if plan.bounds else (0, 0)
            self.hinter = ReadaheadHinter(matrix, rows=span)
        if release_behind is None and self.hinter is not None:
            # Auto: only scans larger than RAM benefit.
            release_behind = plan.total_bytes > _physical_ram_bytes()
        self.release_behind = self.hinter is not None and bool(release_behind)

        self.stats = ChunkStreamStats(prefetched=threaded)
        self._reader = _ChunkReader(
            matrix, labels, plan, cuts, self.pool, self.hinter, self.io_workers, compressed
        )
        #: Per-reader ordered ``(start, stop)`` claims — the multi-reader
        #: schedule, which ``repro.vmem.trace.reader_log_trace`` turns into a
        #: replayable trace — and per-reader accounting (chunks, rows, bytes,
        #: read seconds); the readers' own lists, updated live.
        self.reader_log = self._reader.reader_log
        self.reader_stats = self._reader.reader_stats
        # Collecting an abandoned stream also tells its running reads to give
        # up, so one waiting for a buffer the consumer still holds ends.
        weakref.finalize(self, self._reader.stop.set)
        # map_ordered's in_flight counts the chunk the consumer holds, so
        # depth + 1 keeps depth chunks reading while it computes.  While the
        # consumer (its chunk released) waits for the next one, in_flight
        # reads are submitted; were they more than the buffers, later chunks
        # could lease them all and the next chunk's read wait forever.
        in_flight = self.depth + 1 if self.pool is None else min(self.depth + 1, self.pool.buffers)
        # Tells this stream's reader threads apart, for close() to join.
        self._reader_name = f"[chunk stream {next(_stream_numbers)}]"
        self._reads = map_ordered(
            self._reader,
            enumerate(plan.bounds),
            self.io_workers,
            in_flight,
            threaded=True,
            timeout_s=stall_timeout_s,
            # A chunk read but never consumed hands its buffer back.
            discard=lambda read: read.chunk.release(),
            name=self._reader_name,
        )
        self._last_yield: Optional[float] = None
        self._finished = False
        self._closed = False
        # The dont_need cursor: rows in [0, _released_through) have had their
        # page cache handed back; _prev_start is the last emitted chunk, kept
        # cached because the consumer may still be computing on it.
        self._released_through = 0
        self._prev_start: Optional[int] = None

        if self.hinter is not None:
            self.stats.record_hints(self.hinter.advise_sequential())

    # -- construction helpers ----------------------------------------------

    def _resolve_pool(
        self, buffer_pool: Optional[ChunkBufferPool], cuts: np.ndarray, compressed: bool
    ) -> Optional[ChunkBufferPool]:
        plan = self.plan
        if buffer_pool is not None:
            self._validate_pool(buffer_pool)
            return buffer_pool
        # Compressed streams decode *every* chunk into a pooled buffer (there
        # is no zero-copy view of coded bytes), so they always need the ring.
        needs_pool = plan.num_chunks > 0 and (compressed or any(
            _range_straddles(cuts, start, stop) for start, stop in plan.bounds
        ))
        if not needs_pool:
            return None
        labels = self.labels
        label_dtype = None
        if labels is not None:
            label_dtype = getattr(labels, "dtype", None)
            if label_dtype is None:
                # Labels without a dtype (plain lists): probe one element so
                # the ring's buffers match what the slices actually hold.
                probe = np.asarray(labels[:1])
                label_dtype = probe.dtype if probe.size else np.dtype(np.int64)
        return ChunkBufferPool(
            buffers=self.depth,
            chunk_rows=max(1, max(stop - start for start, stop in plan.bounds)),
            n_cols=plan.n_cols,
            dtype=np.dtype(self.matrix.dtype),
            label_dtype=label_dtype,
        )

    def _validate_pool(self, pool: ChunkBufferPool) -> None:
        """Reject a shared pool whose buffers cannot faithfully hold the stream.

        ``gather_into``/``decode_into`` copy with ``casting="unsafe"``, so a
        float32 matrix streamed through a float64 ring would *silently upcast*
        every pooled chunk — consumers would train on a different dtype than
        the data — and undersized buffers would alias or truncate rows.
        Shared rings are an optimisation for repeated passes over the *same*
        geometry; anything else is a caller bug worth a loud error.
        """
        plan = self.plan
        matrix_dtype = np.dtype(self.matrix.dtype)
        if pool.dtype != matrix_dtype:
            raise ValueError(
                f"buffer pool dtype {pool.dtype} does not match matrix dtype "
                f"{matrix_dtype}: pooled chunks would silently change dtype "
                f"in flight; build the pool with the matrix's own dtype"
            )
        if pool.n_cols != plan.n_cols:
            raise ValueError(
                f"buffer pool is sized for {pool.n_cols} columns but the "
                f"plan streams {plan.n_cols}"
            )
        if plan.num_chunks:
            widest = max(stop - start for start, stop in plan.bounds)
            if pool.chunk_rows < widest:
                raise ValueError(
                    f"buffer pool holds {pool.chunk_rows} rows per buffer but "
                    f"the plan's widest chunk is {widest} rows"
                )

    # -- consumer ------------------------------------------------------------

    def __iter__(self) -> "ChunkStream":
        return self

    def __next__(self) -> Chunk:
        if self._finished:
            raise StopIteration
        now = time.perf_counter()
        compute_s = now - self._last_yield if self._last_yield is not None else 0.0
        try:
            read = next(self._reads)
        except StopIteration:
            self._finish(compute_s)
            raise
        except DeadlineExceeded:
            raise self._stalled(compute_s) from None
        except Exception as error:
            self._finish(compute_s)
            raise self._read_failed(error) from error
        chunk = read.chunk
        # Inline, the consumer waited for the whole read.
        wait_s = time.perf_counter() - now if self.io_workers else chunk.read_s
        self.stats.record_hints(read.hints)
        self.stats.retries += read.retries
        self.stats.faults_injected += read.faults_injected
        if self.release_behind:
            # The plan tiles rows strictly forward, so everything before the
            # *previous* chunk is permanently behind the cursor: hand those
            # pages back so a scan larger than RAM never evicts pages ahead
            # of itself.  The previous chunk itself stays cached — the
            # consumer may still be computing on a zero-copy view of it.
            if self._prev_start is not None and self._prev_start > self._released_through:
                self.stats.record_released(
                    self.hinter.dont_need(self._released_through, self._prev_start)
                )
                self._released_through = self._prev_start
            self._prev_start = chunk.start
        self.stats.record(
            chunk.read_s,
            wait_s,
            compute_s,
            chunk.rows,
            chunk.rows * self.plan.row_bytes,
            decode_s=chunk.decode_s,
            compressed_bytes=chunk.compressed_bytes,
        )
        self._last_yield = time.perf_counter()
        return chunk

    def _read_failed(self, error: BaseException) -> ChunkStreamError:
        return ChunkStreamError(
            f"chunk stream reader failed while reading "
            f"{self.plan.num_chunks} planned chunk(s): {error!r}"
        )

    def _stalled(self, compute_s: float) -> ChunkStreamError:
        """Build the stall diagnostic, then end the stream.

        Snapshots each reader's last claim and the buffer ring's outstanding
        leases while the overdue read is still running, so the error names
        the stalled site — a wedged reader, or a consumer hoarding leased
        chunks — instead of just saying "timed out".
        """
        reader = self._reader
        busy = sum(not idle.is_set() for idle in reader.idle)
        per_reader = "; ".join(
            f"reader {acct['reader']}: {acct['chunks']} chunk(s) read, "
            f"last claim {log[-1] if log else None}"
            for acct, log in zip(reader.reader_stats, reader.reader_log)
        )
        leases = ""
        if self.pool is not None:
            leases = (
                f"; {self.pool.buffers - self.pool.available} of "
                f"{self.pool.buffers} buffers unreleased (leased chunks must "
                f"be release()d before more can be read)"
            )
        self._finish(compute_s)
        return ChunkStreamError(
            f"chunk stream stalled: chunk {self.stats.chunks} of "
            f"{self.plan.num_chunks} planned chunk(s) did not arrive within "
            f"stall_timeout_s={self.stall_timeout_s} (live readers: {busy}; "
            f"{per_reader}{leases})"
        )

    def _finish(self, trailing_compute_s: float) -> None:
        """End the stream on the consumer side: exhausted, failed or stalled.

        Marks the stream finished *before* the caller raises, so a consumer
        that catches the error and keeps iterating gets a clean
        ``StopIteration`` on every later call, and tells reads still waiting
        for a buffer to give up.
        """
        self.stats.record_trailing_compute(trailing_compute_s)
        self._finished = True
        self._last_yield = None
        self._reader.stop.set()

    def close(self) -> None:
        """Stop the readers and wait for them, for at most 5 s in all.

        Idempotent.  Closing the read map cancels the reads not yet started
        and hands back the buffers of chunks read but never consumed; a read
        waiting for a buffer gives up at once.  The map itself never waits
        for a running read, so the bound here is the only wait: ``close()``
        can never hang a serving loop.
        """
        if self._closed:
            return
        self._closed = self._finished = True
        self._reader.stop.set()
        self._reads.close()
        readers = COMPUTE_THREAD_PREFIX + self._reader_name
        deadline = time.perf_counter() + 5.0
        for thread in threading.enumerate():
            if thread.name.startswith(readers):
                thread.join(max(0.0, deadline - time.perf_counter()))
        if self.hinter is not None:
            self.hinter.close()

    def __enter__(self) -> "ChunkStream":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def open_chunk_stream(
    matrix: Any,
    labels: Optional[Any] = None,
    chunk_rows: Optional[int] = None,
    align_shards: bool = True,
    prefetch: bool = True,
    plan: Optional[ChunkPlan] = None,
    io_workers: Optional[int] = None,
    buffer_pool: Optional[ChunkBufferPool] = None,
    hints: bool = True,
    release_behind: Optional[bool] = None,
    decode_workers: Optional[int] = None,
    stall_timeout_s: Optional[float] = DEFAULT_STALL_TIMEOUT_S,
) -> ChunkStream:
    """Build a chunk stream in one call.

    Parameters
    ----------
    matrix, labels:
        Anything :func:`plan_chunks` accepts, plus an optional label vector
        of the same height (ndarray, memmap or lazy ``ShardedLabels``).
    chunk_rows, align_shards:
        Forwarded to :func:`plan_chunks` when no ``plan`` is given.
    plan:
        A prebuilt :class:`ChunkPlan` (e.g. a ``row_range`` delta plan); it
        must have been computed against the same manifest generation.
    prefetch, io_workers:
        How many reader threads run ahead of the consumer.  ``io_workers=None``
        (default) is one reader with a window of 2 — double buffering — or,
        with ``prefetch=False``, an *inline* stream: no thread at all, the
        consumer reads each chunk as it asks for it.  ``io_workers=n``
        (``n >= 1``) is exactly ``n`` readers, never more than the plan has
        chunks.  They read ``max(2, 2 × readers)`` chunks ahead of the
        consumer, capped by the buffer ring (``stream.depth``).
    buffer_pool:
        ``None`` = preallocate a ring of ``stream.depth`` buffers when (and
        only when) the plan contains stitched or compressed chunks; a
        :class:`ChunkBufferPool` = use that ring (shared across the passes of
        a run, or sized by the caller: a smaller ring shrinks the window).
    hints:
        Issue ``madvise``/``posix_fadvise`` readahead hints per chunk read.
    release_behind:
        ``dont_need`` the pages strictly behind the consumer's scan cursor so
        a strictly-forward scan larger than RAM never evicts pages *ahead* of
        itself.  ``None`` (default) enables it automatically when the plan's
        bytes exceed physical RAM; ``True``/``False`` force it.  Applied
        release hints are counted in ``stats.hints_released``.
    decode_workers:
        Readers of a matrix whose shards are decoded; ignored for mapped
        ones.  Each reader fetches a chunk's coded payloads and inflates them
        into a pool lease itself, so a decoded stream runs
        ``max(io_workers, decode_workers)`` readers (capped by the plan's
        chunks).  ``None`` means the reader count; it must be ``>= 1``.
        Every compressed chunk flows through the buffer ring and the hot
        path stays allocation-free.
    stall_timeout_s:
        How long the consumer waits on the next chunk's read before raising
        a diagnostic :class:`ChunkStreamError` (it names the due chunk, each
        reader's last claim and the unreleased buffers); ``None`` waits
        forever.  Inline reads have no deadline: the consumer is the reader.

    Ownership of the yielded chunks: an inline stream builds no pool, hints
    nothing and yields chunks that *own* their arrays (a decoded matrix
    decodes through its block cache), so ``list(open_chunk_stream(...,
    prefetch=False))`` is legal.  A threaded stream may yield *leased* chunks
    (stitched or decoded into the buffer ring) that the consumer must
    ``release()``; see :class:`Chunk`.
    """
    if plan is None:
        plan = plan_chunks(matrix, chunk_rows=chunk_rows, align_shards=align_shards)
    return ChunkStream(
        matrix,
        labels,
        plan,
        prefetch=prefetch,
        io_workers=io_workers,
        buffer_pool=buffer_pool,
        hints=hints,
        release_behind=release_behind,
        decode_workers=decode_workers,
        stall_timeout_s=stall_timeout_s,
    )
