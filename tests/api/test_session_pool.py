"""Tests for the session's LRU handle pool.

The pool's contract: repeated ``Session.open`` calls on a hot dataset share
one backend handle; the cached entry is invalidated by ``close()``/``flush()``
on any sharing dataset and by ``Session.create`` on the location; and a
dataset file rewritten on disk between opens is *never* served from a stale
memory map (fingerprint revalidation).
"""

import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.sharded import ShardAppender
from repro.api.storage import ShardedBackend
from repro.data.formats import write_binary_matrix


@pytest.fixture()
def xy():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] > 0).astype(np.int64)
    return X, y


class TestHandleReuse:
    def test_concurrent_opens_share_backend_handle(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/hot.m3"
            session.create(spec, X, y)
            first = session.open(spec)
            second = session.open(spec)
            assert first.matrix.backing is second.matrix.backing
            # Traces stay per handle even though the backing is shared.
            assert first.trace is second.trace is None

    def test_sharded_handles_shared(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"shard://{tmp_path}/hot_shards"
            session.create(spec, X, y, shard_rows=8)
            first = session.open(spec)
            second = session.open(spec)
            assert first.matrix.backing is second.matrix.backing

    def test_different_advice_does_not_share(self, tmp_path, xy):
        # madvise applies to the whole mapping, so opens wanting different
        # advice must get independent handles.
        from repro.core.advice import AccessAdvice

        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/adv.m3"
            session.create(spec, X, y)
            sequential = session.open(spec, advice=AccessAdvice.SEQUENTIAL)
            random = session.open(spec, advice=AccessAdvice.RANDOM)
            assert sequential.matrix.backing is not random.matrix.backing
            assert sequential.matrix.advice is AccessAdvice.SEQUENTIAL
            assert random.matrix.advice is AccessAdvice.RANDOM

    def test_pool_less_opens_are_untracked_and_close_independently(self, tmp_path, xy):
        # handle_pool_size=0: every open maps its own files, nothing is
        # tracked for reuse, and each handle closes with its own dataset.
        X, y = xy
        from repro.data.formats import write_binary_matrix as write
        write(tmp_path / "unpooled.m3", X, y)
        with Session(handle_pool_size=0) as session:
            first = session.open(tmp_path / "unpooled.m3")
            second = session.open(tmp_path / "unpooled.m3")
            assert first.matrix.backing is not second.matrix.backing
            assert len(session._pool) == 0
            first.close()
            np.testing.assert_array_equal(second[0:3], X[0:3])

    def test_different_modes_do_not_share(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/modes.m3"
            session.create(spec, X, y)
            reader = session.open(spec, mode="r")
            writer = session.open(spec, mode="r+")
            assert reader.matrix.backing is not writer.matrix.backing

    def test_pool_can_be_disabled(self, tmp_path, xy):
        X, y = xy
        with Session(handle_pool_size=0) as session:
            spec = f"mmap://{tmp_path}/nopool.m3"
            session.create(spec, X, y)
            assert session.open(spec).matrix.backing is not session.open(spec).matrix.backing

    def test_lru_capacity_bounds_tracked_entries(self, xy):
        X, y = xy
        with Session(handle_pool_size=3) as session:
            for i in range(6):
                session.create(f"memory://d{i}", X, y)
                session.open(f"memory://d{i}")
            assert len(session._pool) <= 3


class TestInvalidation:
    def test_close_invalidates_cached_handle(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/rw.m3"
            session.create(spec, X, y)
            first = session.open(spec)
            backing = first.matrix.backing
            first.close()
            # Rewrite the file behind the session's back, then re-open: the
            # close invalidated the pool entry, so this must be a fresh map.
            time.sleep(0.01)
            write_binary_matrix(tmp_path / "rw.m3", X * 10.0, y)
            reopened = session.open(spec)
            assert reopened.matrix.backing is not backing
            np.testing.assert_allclose(np.asarray(reopened[:3]), X[:3] * 10.0)

    def test_flush_invalidates_cached_handle(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/fl.m3"
            session.create(spec, X, y)
            first = session.open(spec)
            first.flush()
            second = session.open(spec)
            assert second.matrix.backing is not first.matrix.backing

    def test_create_invalidates_cached_handle(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/cr.m3"
            session.create(spec, X, y)
            first = session.open(spec)
            session.create(spec, X + 1.0, y)
            second = session.open(spec)
            assert second.matrix.backing is not first.matrix.backing
            np.testing.assert_allclose(np.asarray(second[:3]), X[:3] + 1.0)

    def test_external_rewrite_detected_by_fingerprint(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/ext.m3"
            session.create(spec, X, y)
            first = session.open(spec)  # entry stays hot (not closed)
            time.sleep(0.01)
            write_binary_matrix(tmp_path / "ext.m3", X * 3.0, y)
            second = session.open(spec)
            assert second.matrix.backing is not first.matrix.backing
            np.testing.assert_allclose(np.asarray(second[:3]), X[:3] * 3.0)

    def test_stale_release_does_not_evict_fresh_entry(self, tmp_path, xy):
        # flush invalidates ds1's entry; a later open pools a fresh entry for
        # the same key; closing ds1 must not evict that fresh entry.
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/stale.m3"
            session.create(spec, X, y)
            first = session.open(spec)
            first.flush()
            second = session.open(spec)
            first.close()
            third = session.open(spec)
            assert third.matrix.backing is second.matrix.backing

    def test_append_during_an_open_never_pools_the_old_generation_as_fresh(
        self, tmp_path, xy, monkeypatch
    ):
        # An append commits while the pool is opening a handle: the entry
        # must look stale afterwards, so the next open sees the new rows.
        X, y = xy
        with Session() as session:
            spec = f"shard://{tmp_path}/race"
            session.create(spec, X, y, shard_rows=8)
            appender = ShardAppender(tmp_path / "race", shard_rows=8)
            open_from = ShardedBackend.open_from
            pending = [lambda: appender.append(X[:4], y[:4])]

            def open_then_append(backend, *args, **kwargs):
                handle = open_from(backend, *args, **kwargs)
                while pending:
                    pending.pop()()
                return handle

            monkeypatch.setattr(ShardedBackend, "open_from", open_then_append)
            first = session.open(spec)
            second = session.open(spec)
            assert (first.generation, second.generation) == (0, 1)
            assert second.shape[0] == X.shape[0] + 4
            first.close()
            second.close()

    def test_closed_datasets_pruned_from_session(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"mmap://{tmp_path}/churn.m3"
            session.create(spec, X, y)
            for _ in range(50):
                session.open(spec).close()
            assert session._datasets == []

    def test_shared_handle_closes_with_last_user(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = f"shard://{tmp_path}/refs"
            session.create(spec, X, y, shard_rows=8)
            first = session.open(spec)
            second = session.open(spec)
            matrix = first.matrix.backing
            first.close()
            # The sharded matrix must survive for the second dataset.
            np.testing.assert_allclose(np.asarray(second[:2]), X[:2])
            second.close()
            with pytest.raises(RuntimeError, match="closed"):
                matrix[0:2]
