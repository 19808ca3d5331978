"""The chunk executor's behaviour matrix: every reader count × every backing.

:class:`~repro.api.chunks.ChunkStream` is the only executor behind
``open_chunk_stream``; what used to be three classes is three settings of it
— *inline* (``prefetch=False``: the consumer reads), *one reader* (the
default: double buffering) and a *reader pool*.  Every behaviour the stream
promises is checked here for each setting over each kind of storage: a plain
ndarray, raw shards with shard-aligned chunks (zero-copy views), raw shards
with ``align_shards=False`` (stitched into the buffer ring) and zlib shards
(fetched, then decoded into the ring by the same reader).
"""

import gc
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.chunks import ChunkStreamError, open_chunk_stream
from repro.api.sharded import ShardedMatrix, open_sharded_matrix, write_sharded_dataset
from repro.faults import RetriesExhausted
from repro.fanout import COMPUTE_THREAD_PREFIX

ROWS, COLS = 60, 4

MODES = {
    "inline": {"prefetch": False},
    "1-reader": {},  # the default stream
    "4-readers": {"io_workers": 4},
}
THREADED = [mode for mode in MODES if mode != "inline"]


@pytest.fixture(params=["ndarray", "raw-aligned", "raw-unaligned", "zlib"])
def backing(request, tmp_path):
    """One kind of storage holding the same 60x4 rows, plus how to chunk it.

    13-row shards under 9-row unaligned chunks make most chunks straddle a
    shard edge; 5-row zlib blocks make consecutive 7-row chunks share one.
    """
    X = np.arange(float(ROWS * COLS)).reshape(ROWS, COLS)
    y = np.arange(ROWS) % 3
    kind = request.param
    if kind == "ndarray":
        return SimpleNamespace(kind=kind, matrix=X, labels=y, X=X, y=y,
                               options={"chunk_rows": 7})
    codec = {"codec": "zlib", "block_rows": 5} if kind == "zlib" else {}
    write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=13, **codec)
    matrix = open_sharded_matrix(tmp_path / "ds")
    options = (
        {"chunk_rows": 9, "align_shards": False}
        if kind == "raw-unaligned"
        else {"chunk_rows": 7}
    )
    return SimpleNamespace(kind=kind, matrix=matrix, labels=matrix.lazy_labels,
                           X=X, y=y, options=options)


@pytest.fixture(params=list(MODES))
def mode(request):
    return request.param


def _open(backing, mode, matrix=None, **extra):
    return open_chunk_stream(
        backing.matrix if matrix is None else matrix,
        labels=backing.labels,
        **backing.options,
        **MODES[mode],
        **extra,
    )


@pytest.fixture
def wound_down():
    """Check that no thread the test started survives, and the ring is whole.

    The baseline is the set of live threads when the test starts, so the
    check holds whatever the stream's readers are named.
    """
    before = set(threading.enumerate())

    def check(pool=None):
        deadline = time.perf_counter() + 2.0
        while True:
            alive = set(threading.enumerate()) - before
            if not alive or time.perf_counter() >= deadline:
                break
            time.sleep(0.01)
        assert not alive
        if pool is not None:
            assert pool.available == pool.buffers

    return check


class _RowsWith:
    """An ndarray whose row reads go through ``hook(start)`` first."""

    def __init__(self, X, hook):
        self._X = X
        self.shape = X.shape
        self.dtype = X.dtype
        self.hook = hook

    def __getitem__(self, key):
        self.hook(key.start)
        return self._X[key]


def _hook_reads(monkeypatch, backing, hook):
    """Run ``hook(start)`` before every read of rows; returns the matrix to open."""
    if backing.kind == "ndarray":
        return _RowsWith(backing.X, hook)

    def hooked(real):
        def read(self, first, *rest):
            hook(first.start if isinstance(first, slice) else first)
            return real(self, first, *rest)
        return read

    # The three entry points a stream reads rows through: slicing (views,
    # and everything inline), the stitching gather, the compressed fetch.
    for name in ("__getitem__", "gather_into", "fetch_compressed"):
        monkeypatch.setattr(ShardedMatrix, name, hooked(getattr(ShardedMatrix, name)))
    return backing.matrix


def _fuse_reads(monkeypatch, backing, fuse_row):
    """Make every read of rows at/after ``fuse_row`` fail; returns the matrix."""

    def fuse(start):
        if start >= fuse_row:
            raise OSError("disk on fire")

    return _hook_reads(monkeypatch, backing, fuse)


def _wedge_reads(monkeypatch, backing, sleep_s):
    """Make every read take ``sleep_s`` longer; returns the matrix to open."""
    return _hook_reads(monkeypatch, backing, lambda start: time.sleep(sleep_s))


class TestChunkSequence:
    def test_chunks_are_bit_identical_to_slices_in_plan_order(self, backing, mode, wound_down):
        with _open(backing, mode) as stream:
            seen = []
            for chunk in stream:
                np.testing.assert_array_equal(chunk.X, backing.X[chunk.start:chunk.stop])
                np.testing.assert_array_equal(chunk.y, backing.y[chunk.start:chunk.stop])
                assert chunk.rows == chunk.stop - chunk.start
                seen.append((chunk.index, chunk.start, chunk.stop))
                chunk.release()
        bounds = stream.plan.bounds
        assert seen == [(i, start, stop) for i, (start, stop) in enumerate(bounds)]
        assert bounds[0][0] == 0 and bounds[-1][1] == ROWS
        stats = stream.stats
        assert (stats.chunks, stats.rows) == (len(bounds), ROWS)
        assert stats.bytes_read == ROWS * COLS * 8
        assert stats.prefetched == (mode != "inline")
        wound_down(stream.pool)

    def test_who_owns_the_arrays(self, backing, mode):
        # Inline chunks always own their arrays, so hoarding them is legal;
        # shard-aligned raw chunks are zero-copy views under every reader
        # count; only stitched/decoded chunks of a threaded stream are leased.
        stream = _open(backing, mode)
        held = []
        for chunk in stream:
            if mode == "inline" or backing.kind in ("ndarray", "raw-aligned"):
                assert chunk.lease is None
            if backing.kind == "raw-aligned":
                assert any(np.shares_memory(chunk.X, m) for m in backing.matrix._maps)
            if backing.kind == "zlib" and mode != "inline":
                assert chunk.lease is not None
            if mode == "inline":
                held.append(chunk)
            else:
                chunk.release()
        if held:
            np.testing.assert_array_equal(np.concatenate([c.X for c in held]), backing.X)
        assert (stream.pool is None) == (
            mode == "inline" or backing.kind in ("ndarray", "raw-aligned")
        )
        stream.close()

    def test_inline_stream_builds_no_thread_pool_or_hinter(self, backing):
        before = set(threading.enumerate())
        with _open(backing, "inline") as stream:
            assert (stream.io_workers, stream.depth) == (0, 0)
            assert stream.pool is None and stream.hinter is None
            assert stream.reader_stats == []
            next(stream)
            assert set(threading.enumerate()) == before
            list(stream)
        # The consumer waited for every read in full.
        assert stream.stats.io_wait_s == stream.stats.read_s
        assert stream.stats.hints_applied == 0

    def test_default_stream_is_one_reader_with_a_window_of_two(self, backing):
        before = set(threading.enumerate())
        with _open(backing, "1-reader") as stream:
            assert (stream.io_workers, stream.depth) == (1, 2)
            next(stream).release()
            started = set(threading.enumerate()) - before
            assert [t.name.startswith(COMPUTE_THREAD_PREFIX) for t in started] == [True]
            for chunk in stream:
                chunk.release()
        assert stream.reader_stats[0]["chunks"] == stream.plan.num_chunks


class TestReadErrors:
    FUSE_ROW = 27

    def test_error_follows_every_earlier_chunk_then_clean_exhaustion(
        self, backing, mode, monkeypatch, wound_down
    ):
        matrix = _fuse_reads(monkeypatch, backing, self.FUSE_ROW)
        stream = _open(backing, mode, matrix=matrix)
        pool = stream.pool
        delivered = []
        with pytest.raises(ChunkStreamError, match="reader failed") as excinfo:
            for chunk in stream:
                delivered.append((chunk.start, chunk.stop))
                chunk.release()
        # Everything before the first chunk that starts past the fuse arrived,
        # in plan order, whichever reader the failing chunk fell to.
        bounds = stream.plan.bounds
        failing = next(i for i, (start, _) in enumerate(bounds) if start >= self.FUSE_ROW)
        assert delivered == list(bounds[:failing])
        # The causal chain survives: stream error <- exhausted retry budget
        # <- the original OSError.
        exhausted = excinfo.value.__cause__
        assert isinstance(exhausted, RetriesExhausted)
        assert isinstance(exhausted.__cause__, OSError)
        assert "disk on fire" in str(exhausted.__cause__)
        # A consumer that swallows the error gets clean exhaustion afterwards,
        # never a second raise of the reader's exception.
        for _ in range(2):
            with pytest.raises(StopIteration):
                next(stream)
        stream.close()
        wound_down(pool)

    def test_error_on_the_first_chunk(self, backing, mode, monkeypatch, wound_down):
        matrix = _fuse_reads(monkeypatch, backing, 0)
        with pytest.raises(ChunkStreamError):
            with _open(backing, mode, matrix=matrix) as stream:
                list(stream)
        assert stream.stats.chunks == 0
        wound_down(stream.pool)


class TestStallDeadline:
    """Only a threaded stream can stall: inline, the consumer *is* the reader."""

    @pytest.mark.parametrize("mode", THREADED)
    def test_wedged_readers_surface_as_a_diagnostic_within_the_deadline(
        self, backing, mode, monkeypatch, wound_down
    ):
        matrix = _wedge_reads(monkeypatch, backing, 0.4)
        stream = _open(backing, mode, matrix=matrix, hints=False, stall_timeout_s=0.1)
        began = time.perf_counter()
        with pytest.raises(ChunkStreamError, match="stalled") as excinfo:
            next(stream)
        assert time.perf_counter() - began < 0.35  # the deadline, not the wedge
        message = str(excinfo.value)
        assert "stall_timeout_s=0.1" in message
        assert f"chunk 0 of {stream.plan.num_chunks} planned chunk(s)" in message
        assert f"live readers: {stream.io_workers}" in message
        assert "reader 0" in message and "last claim (0, " in message
        # The stream is finished, not wedged: later pulls are clean.
        with pytest.raises(StopIteration):
            next(stream)
        pool = stream.pool
        stream.close()
        wound_down(pool)

    @pytest.mark.parametrize("mode", THREADED)
    def test_a_failed_read_does_not_wait_for_a_wedged_one(
        self, backing, mode, monkeypatch, wound_down
    ):
        # The first chunk's read fails while later reads are wedged until the
        # test lets them go: the failure surfaces as "reader failed", so it
        # beat the 0.2 s stall deadline, which would have reported a stall.
        # The wedge outlasts any host noise; only a hang trips the 5 s bound.
        released = threading.Event()

        def hook(start):
            if start == 0:
                raise OSError("disk on fire")
            released.wait(10.0)

        matrix = _hook_reads(monkeypatch, backing, hook)
        stream = _open(backing, mode, matrix=matrix, hints=False, stall_timeout_s=0.2)
        began = time.perf_counter()
        try:
            with pytest.raises(ChunkStreamError, match="reader failed"):
                next(stream)
            assert time.perf_counter() - began < 5.0
        finally:
            released.set()
        pool = stream.pool
        stream.close()
        wound_down(pool)

    @pytest.mark.parametrize("mode", THREADED)
    def test_no_timeout_opts_out_of_the_deadline(self, backing, mode, monkeypatch):
        matrix = _wedge_reads(monkeypatch, backing, 0.15)
        with _open(backing, mode, matrix=matrix, stall_timeout_s=None) as stream:
            chunk = next(stream)
            assert chunk.rows == stream.plan.bounds[0][1]
            chunk.release()

    def test_inline_reads_have_no_deadline(self, backing, monkeypatch):
        matrix = _wedge_reads(monkeypatch, backing, 0.15)
        with _open(backing, "inline", matrix=matrix, stall_timeout_s=0.05) as stream:
            assert next(stream).rows == stream.plan.bounds[0][1]

    def test_hoarding_consumer_is_told_how_many_buffers_it_holds(self, tmp_path, wound_down):
        # The default stream over unaligned shards leases stitched chunks out
        # of a two-buffer ring; a consumer that never releases them starves
        # the reader, and the stall error must say so rather than just
        # "timed out".
        X = np.arange(240.0).reshape(60, 4)
        write_sharded_dataset(tmp_path / "ds", X, shard_rows=13)
        stream = open_chunk_stream(
            ShardedMatrix(tmp_path / "ds"), chunk_rows=9, align_shards=False,
            stall_timeout_s=0.2,
        )
        hoard = []
        with pytest.raises(ChunkStreamError, match=r"2 of 2 buffers unreleased"):
            for chunk in stream:
                hoard.append(chunk)
        assert sum(chunk.lease is not None for chunk in hoard) == 2
        for chunk in hoard:
            chunk.release()
        stream.close()
        wound_down(stream.pool)


class TestTeardown:
    def test_close_mid_stream_is_idempotent_and_joins(self, backing, mode, wound_down):
        before = set(threading.enumerate())
        stream = _open(backing, mode)
        next(stream).release()
        stream.close()
        stream.close()
        assert set(threading.enumerate()) == before
        with pytest.raises(StopIteration):
            next(stream)
        wound_down(stream.pool)

    @pytest.mark.parametrize("mode", THREADED)
    def test_close_joins_a_wedged_read_within_its_bound(
        self, backing, mode, monkeypatch, wound_down
    ):
        before = set(threading.enumerate())
        matrix = _wedge_reads(monkeypatch, backing, 0.4)
        stream = _open(backing, mode, matrix=matrix, hints=False)
        next(stream).release()
        began = time.perf_counter()
        stream.close()  # the next chunk's read is still wedged
        assert time.perf_counter() - began < 5.0
        assert set(threading.enumerate()) == before
        wound_down(stream.pool)

    def test_abandoned_stream_is_collectable_and_winds_down(self, backing, mode, wound_down):
        # Readers must not strongly reference the stream: dropping an
        # unexhausted one lets it be finalized, which stops the readers and
        # sends every buffer home instead of pinning both for the process
        # lifetime.
        import weakref

        stream = _open(backing, mode)
        next(stream).release()
        pool = stream.pool
        ref = weakref.ref(stream)
        del stream
        gc.collect()
        assert ref() is None
        wound_down(pool)

    def test_empty_plan_exhausts_immediately(self, mode, wound_down):
        with open_chunk_stream(np.zeros((0, 3)), chunk_rows=4, **MODES[mode]) as stream:
            assert list(stream) == []
        assert stream.stats.chunks == 0
        assert stream.stats.io_overlap is None
        wound_down()
