"""Runtime lock-order and leak-detection harness tests.

Covers the acceptance bar from the analyzer spec: a deliberately inverted
two-lock acquisition under ``REPRO_ANALYSIS=1`` raises
:class:`LockOrderViolation`, the passthrough factories cost nothing when
analysis is off, and the instrumented streaming pipeline runs clean.
"""

import threading

import numpy as np
import pytest

from repro.analysis.runtime import (
    GRAPH,
    LEASES,
    LockOrderViolation,
    OrderedLock,
    ThreadLeakDetector,
    analysis_enabled,
    make_condition,
    make_lock,
    make_rlock,
    set_analysis_enabled,
)


@pytest.fixture(autouse=True)
def clean_graph():
    """Isolate the global lock-order graph per test."""
    GRAPH.clear()
    yield
    GRAPH.clear()


class TestOrderedLockRanks:
    def test_increasing_ranks_pass(self):
        low = OrderedLock("t.low", rank=10)
        high = OrderedLock("t.high", rank=20)
        with low:
            with high:
                pass

    def test_inverted_ranks_raise(self):
        low = OrderedLock("t.low", rank=10)
        high = OrderedLock("t.high", rank=20)
        with high:
            with pytest.raises(LockOrderViolation, match="strictly increase"):
                low.acquire()

    def test_equal_ranks_raise(self):
        a = OrderedLock("t.a", rank=10)
        b = OrderedLock("t.b", rank=10)
        with a:
            with pytest.raises(LockOrderViolation):
                b.acquire()

    def test_double_acquire_of_plain_lock_raises(self):
        lock = OrderedLock("t.plain", rank=10)
        with lock:
            with pytest.raises(LockOrderViolation, match="self-deadlock"):
                lock.acquire()

    def test_reentrant_reacquire_is_allowed(self):
        lock = OrderedLock("t.re", rank=10, reentrant=True)
        with lock:
            with lock:
                pass

    def test_failed_nonblocking_acquire_not_pushed(self):
        lock = OrderedLock("t.nb", rank=10)
        holder = threading.Thread(target=lambda: None)
        lock.acquire()
        try:
            result = []
            thread = threading.Thread(
                target=lambda: result.append(lock.acquire(blocking=False))
            )
            thread.start()
            thread.join()
            assert result == [False]
        finally:
            lock.release()
        del holder


class TestLockOrderGraph:
    def test_learns_order_without_ranks(self):
        a = OrderedLock("t.graph.a")
        b = OrderedLock("t.graph.b")
        with a:
            with b:  # records a -> b
                pass
        with b:
            with pytest.raises(LockOrderViolation, match="inverts"):
                a.acquire()

    def test_transitive_cycle_detected(self):
        a, b, c = (OrderedLock(f"t.tri.{n}") for n in "abc")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderViolation):
                a.acquire()

    def test_edges_snapshot(self):
        a = OrderedLock("t.snap.a")
        b = OrderedLock("t.snap.b")
        with a:
            with b:
                pass
        assert GRAPH.edges() == {"t.snap.a": {"t.snap.b"}}


class TestConditionIntegration:
    def test_condition_over_ordered_lock_waits_and_notifies(self):
        cond = threading.Condition(OrderedLock("t.cond", reentrant=True))
        items = []

        def consumer():
            with cond:
                while not items:
                    cond.wait(timeout=5.0)

        thread = threading.Thread(target=consumer)
        thread.start()
        with cond:
            items.append(1)
            cond.notify_all()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_wait_fully_releases_held_stack(self):
        # While a thread waits on the condition it holds nothing, so another
        # acquisition by the same thread after wake-up re-checks cleanly.
        lock = OrderedLock("t.wait.lock", rank=50, reentrant=True)
        cond = threading.Condition(lock)
        with cond:
            cond.wait(timeout=0.01)  # times out; stack must be restored
            assert lock._is_owned()


class TestFactories:
    def test_passthrough_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANALYSIS", raising=False)
        previous = set_analysis_enabled(None)
        try:
            assert not analysis_enabled()
            assert not isinstance(make_lock("t.f.a"), OrderedLock)
            assert not isinstance(make_rlock("t.f.b"), OrderedLock)
            assert not isinstance(make_condition("t.f.c")._lock, OrderedLock)
        finally:
            set_analysis_enabled(previous)

    def test_env_var_enables_instrumentation(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS", "1")
        previous = set_analysis_enabled(None)
        try:
            assert analysis_enabled()
            assert isinstance(make_lock("t.f.d"), OrderedLock)
            assert isinstance(make_condition("t.f.e")._lock, OrderedLock)
        finally:
            set_analysis_enabled(previous)

    def test_inverted_acquisition_under_env_flag_raises(self, monkeypatch):
        # The spec's acceptance test: REPRO_ANALYSIS=1 plus a deliberately
        # inverted two-lock acquisition must raise LockOrderViolation.
        monkeypatch.setenv("REPRO_ANALYSIS", "1")
        previous = set_analysis_enabled(None)
        try:
            first = make_lock("t.acc.first")
            second = make_lock("t.acc.second")
            with first:
                with second:
                    pass
            with second:
                with pytest.raises(LockOrderViolation):
                    first.acquire()
        finally:
            set_analysis_enabled(previous)

    def test_registered_ranks_picked_up_by_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS", "1")
        previous = set_analysis_enabled(None)
        try:
            server_cond = make_condition("repro.serve.server.ModelServer._cond")
            cache_lock = make_lock("repro.api.sharded._BlockCache._lock")
            assert server_cond._lock.rank == 40
            assert cache_lock.rank == 140
            with server_cond:  # rank 40 then 140: the declared nesting order
                with cache_lock:
                    pass
        finally:
            set_analysis_enabled(previous)


class TestInstrumentedPipeline:
    def test_streaming_pipeline_runs_clean_when_instrumented(self, tmp_path):
        # Real-lock integration: the parallel chunk pipeline constructed with
        # instrumentation on must complete without a LockOrderViolation.
        from repro.api.chunks import open_chunk_stream
        from repro.api.sharded import ShardedMatrix, write_sharded_dataset

        X = np.arange(240.0).reshape(60, 4)
        y = np.arange(60) % 3
        write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=13)
        matrix = ShardedMatrix(tmp_path / "ds")
        previous = set_analysis_enabled(True)
        try:
            with open_chunk_stream(
                matrix,
                labels=matrix.lazy_labels,
                chunk_rows=9,
                align_shards=False,
                io_workers=2,
            ) as stream:
                rows = 0
                for chunk in stream:
                    rows += chunk.rows
                    chunk.release()
            assert rows == 60
        finally:
            set_analysis_enabled(previous)


class TestLeaseTracker:
    def test_activation_and_release_bookkeeping(self):
        class FakeLease:
            pass

        lease = FakeLease()
        baseline = LEASES.activated_total
        LEASES.activated(lease)
        assert len(LEASES.outstanding()) == 1
        assert LEASES.activated_total == baseline + 1
        LEASES.released(lease)
        assert LEASES.outstanding() == []

    def test_release_of_unknown_lease_is_harmless(self):
        LEASES.released(object())
        assert LEASES.outstanding() == []


class TestThreadLeakDetector:
    def test_joined_thread_is_not_reported(self):
        detector = ThreadLeakDetector()
        detector.start()
        thread = threading.Thread(target=lambda: None)
        thread.start()
        thread.join()
        assert detector.leaked(grace=0.1) == []

    def test_lingering_thread_is_reported_then_reaped(self):
        release = threading.Event()
        detector = ThreadLeakDetector()
        detector.start()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            leaked = detector.leaked(grace=0.05)
            assert thread in leaked
        finally:
            release.set()
            thread.join()

    def test_daemon_threads_are_ignored(self):
        release = threading.Event()
        detector = ThreadLeakDetector()
        detector.start()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            assert detector.leaked(grace=0.05) == []
        finally:
            release.set()
            thread.join()
