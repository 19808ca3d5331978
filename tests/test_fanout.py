"""The contract of :func:`repro.fanout.map_ordered`, and stream teardown on it.

``map_ordered``'s keyword-only options exist for callers whose workers run
beside them — the chunk stream's readers: ``threaded`` (one worker still
gets a thread, and the caller waits for its workers), ``timeout_s`` (a
deadline on the result due next), ``discard`` (results computed but never
yielded) and ``name`` (tells the caller's threads apart).  Every check compares
``threading.enumerate()`` against the threads alive when it started, so it
holds whatever the pool names its threads.
"""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.api.chunks import ChunkBufferPool, open_chunk_stream, plan_chunks
from repro.api.sharded import open_sharded_matrix, write_sharded_dataset
from repro.fanout import COMPUTE_THREAD_PREFIX, DeadlineExceeded, map_ordered


@pytest.fixture
def no_thread_left():
    """Assert, within 2 s, that every thread started since the test began is gone."""
    before = set(threading.enumerate())

    def check():
        deadline = time.perf_counter() + 2.0
        while set(threading.enumerate()) - before and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) - before == set()

    return check


class TestDeadline:
    def test_raises_at_its_position_after_every_earlier_result(self, no_thread_left):
        release = threading.Event()

        def square(n):
            if n == 3:
                release.wait(timeout=5.0)
            return n * n

        got = []
        with pytest.raises(DeadlineExceeded) as excinfo:
            for value in map_ordered(square, range(8), 2, 3, timeout_s=0.1):
                got.append(value)
        release.set()
        assert got == [0, 1, 4]
        assert isinstance(excinfo.value, TimeoutError)
        no_thread_left()

    def test_an_error_does_not_wait_for_a_stuck_later_worker(self, no_thread_left):
        second_started, release = threading.Event(), threading.Event()

        def fn(n):
            if n == 0:
                second_started.wait(timeout=5.0)
                raise ValueError("first item failed")
            second_started.set()
            release.wait(timeout=5.0)
            return n

        began = time.perf_counter()
        with pytest.raises(ValueError, match="first item failed"):
            list(map_ordered(fn, range(2), 2, 2, timeout_s=5.0))
        assert time.perf_counter() - began < 1.0
        assert not release.is_set()
        release.set()
        no_thread_left()

    def test_a_stuck_worker_does_not_delay_the_raise(self, no_thread_left):
        before = set(threading.enumerate())
        release = threading.Event()
        discarded = []

        def slow_head(n):
            if n == 0:
                release.wait(timeout=5.0)
            return n

        began = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            list(map_ordered(slow_head, range(2), 2, 2, timeout_s=0.05,
                             discard=discarded.append))
        assert time.perf_counter() - began < 1.0
        # Raised while the stuck worker still runs; its late result is
        # discarded when it finishes, and then its thread ends.
        assert any(thread.is_alive() for thread in set(threading.enumerate()) - before)
        release.set()
        no_thread_left()
        assert sorted(discarded) == [0, 1]

    def test_a_worker_that_raises_timeout_error_is_not_a_missed_deadline(self):
        def fail(n):
            raise TimeoutError(f"device timed out on {n}")

        with pytest.raises(TimeoutError, match="device timed out on 0") as excinfo:
            list(map_ordered(fail, range(3), 2, 2, timeout_s=5.0))
        assert not isinstance(excinfo.value, DeadlineExceeded)


class TestTeardown:
    def test_unstarted_items_reach_abandon_and_running_ones_discard(self, no_thread_left):
        drawn, abandoned, discarded = [], [], []
        started = threading.Event()

        def items():
            for n in range(10):
                drawn.append(n)
                yield n

        def fn(n):
            if n == 1:
                started.set()
                time.sleep(0.1)
            return n

        results = map_ordered(fn, items(), 1, 5, abandon=abandoned.append,
                              threaded=True, discard=discarded.append)
        assert next(results) == 0
        assert started.wait(timeout=5.0)
        results.close()
        assert drawn == [0, 1, 2, 3, 4]  # never past in_flight
        assert abandoned == [2, 3, 4]
        no_thread_left()  # the running worker finishes on its own ...
        assert discarded == [1]  # ... and hands its result to discard

    @pytest.mark.parametrize("option", [{"threaded": True}, {"timeout_s": 5.0}])
    def test_close_does_not_wait_for_a_stuck_worker(self, option, no_thread_left):
        release = threading.Event()

        def fn(n):
            if n == 1:
                release.wait(timeout=5.0)
            return n

        results = map_ordered(fn, range(4), 2, 3, **option)
        assert next(results) == 0
        began = time.perf_counter()
        results.close()
        assert time.perf_counter() - began < 1.0
        assert not release.is_set()
        release.set()
        no_thread_left()

    def test_defaults_join_the_workers(self):
        before = set(threading.enumerate())

        def fn(n):
            time.sleep(0.05)
            return n

        results = map_ordered(fn, range(6), 2, 4)
        assert next(results) == 0
        results.close()  # nothing to discard: the default drops them
        assert set(threading.enumerate()) == before


class TestThreaded:
    def test_one_worker_runs_off_the_callers_thread(self, no_thread_left):
        me = threading.current_thread()

        def where(_):
            return threading.current_thread()

        pooled = list(map_ordered(where, range(4), 1, 2, threaded=True))
        assert len(set(pooled)) == 1
        assert pooled[0] is not me and pooled[0].name.startswith(COMPUTE_THREAD_PREFIX)
        assert list(map_ordered(where, range(4), 1, 2)) == [me] * 4
        assert list(map_ordered(where, range(4), 0, 2, threaded=True)) == [me] * 4
        no_thread_left()

    def test_a_threaded_call_inside_a_worker_runs_inline(self):
        def inner(_):
            me = threading.current_thread()
            threads = list(map_ordered(lambda _: threading.current_thread(), range(3), 2, 3,
                                       threaded=True))
            return me, threads

        for me, threads in map_ordered(inner, range(2), 2, 2):
            assert me.name.startswith(COMPUTE_THREAD_PREFIX)
            assert threads == [me] * 3


class TestStreamReaders:
    def test_accounting_holds_under_contention(self, no_thread_left):
        # More readers than cores and a tiny switch interval: every chunk is
        # read once, by one reader, and each reader's claims stay in plan
        # order (a pool thread takes its items first in, first out).
        X = np.arange(4000.0).reshape(1000, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with open_chunk_stream(X, chunk_rows=5, io_workers=8) as stream:
                starts = [chunk.start for chunk in stream]
        finally:
            sys.setswitchinterval(interval)
        assert starts == list(range(0, 1000, 5))
        assert sum(entry["chunks"] for entry in stream.reader_stats) == 200
        assert sorted(b for log in stream.reader_log for b in log) == list(stream.plan.bounds)
        assert all(log == sorted(log) for log in stream.reader_log)
        no_thread_left()


class TestStreamTeardown:
    """A chunk stream's readers are ``map_ordered`` workers: its teardown is the map's."""

    def test_collected_on_its_own_reader_thread(self, monkeypatch, no_thread_left):
        # The stream sits in a reference cycle, so only the collector frees
        # it, and the collection runs inside a read on the stream's own
        # reader: closing the map there must neither try to join that
        # thread ("cannot join current thread") nor wait for it.
        X = np.arange(80.0).reshape(40, 2)
        dropped, collected = threading.Event(), threading.Event()

        class CollectingRows:
            shape, dtype = X.shape, X.dtype

            def __getitem__(self, key):
                if key.start == 8:
                    dropped.wait(timeout=5.0)
                    gc.collect()
                    collected.set()
                return X[key]

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        stream = open_chunk_stream(CollectingRows(), chunk_rows=8)
        stream.cycle = stream
        collectable = weakref.ref(stream)
        next(stream).release()
        del stream
        dropped.set()
        assert collected.wait(timeout=5.0)
        assert collectable() is None
        no_thread_left()
        assert unraisable == []

    def test_collected_stream_tells_a_read_waiting_for_a_buffer_to_give_up(
        self, tmp_path, no_thread_left
    ):
        # The consumer hoards both buffers of the ring and drops the stream:
        # the read of the third chunk waits for a buffer that never comes
        # back, and only the stream's collection can tell it to give up.
        X = np.arange(240.0).reshape(60, 4)
        write_sharded_dataset(tmp_path / "ds", X, shard_rows=13, codec="zlib", block_rows=5)
        matrix = open_sharded_matrix(tmp_path / "ds")
        ring = ChunkBufferPool(buffers=2, chunk_rows=7, n_cols=4, dtype=matrix.dtype)
        stream = open_chunk_stream(matrix, chunk_rows=7, io_workers=2, buffer_pool=ring)
        hoard = [next(stream), next(stream)]
        pool = stream.pool
        assert pool.available == 0
        stream.cycle = stream
        del stream
        gc.collect()
        no_thread_left()
        for chunk in hoard:
            chunk.release()
        assert pool.available == pool.buffers
        matrix.close()

    def test_stream_opened_inside_a_worker_yields_plan_order(self, tmp_path, no_thread_left):
        X = np.arange(240.0).reshape(60, 4)
        y = np.arange(60) % 3
        write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=13, codec="zlib", block_rows=5)
        matrix = open_sharded_matrix(tmp_path / "ds")
        bounds = plan_chunks(matrix, chunk_rows=7).bounds

        def drain(_):
            with open_chunk_stream(matrix, labels=matrix.lazy_labels, chunk_rows=7,
                                   io_workers=2) as stream:
                chunks = []
                for chunk in stream:
                    chunks.append((chunk.index, chunk.start, chunk.stop,
                                   np.asarray(chunk.X).copy(), np.asarray(chunk.y).copy()))
                    chunk.release()
                assert stream.pool.available == stream.pool.buffers
            return chunks

        for chunks in map_ordered(drain, range(3), 2, 3):
            assert [c[:3] for c in chunks] == [(i, *b) for i, b in enumerate(bounds)]
            assert np.array_equal(np.concatenate([c[3] for c in chunks]), X)
            assert np.array_equal(np.concatenate([c[4] for c in chunks]), y)
        matrix.close()
        no_thread_left()
