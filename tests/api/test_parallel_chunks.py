"""Tests for the reader pool's parts: pool sizing, buffer ring, readahead hints.

Stitched chunks reuse a bounded buffer ring with no aliasing between
in-flight chunks, a stream runs at least one reader when it has any, and OS
readahead hints degrade to honest no-ops on platforms without them.  The
ring's lease count and the hinter's fadvise descriptors are written by
several readers at once; each is raced here.
Chunk order, error relay, stall deadlines and teardown are checked for every
reader count in ``test_chunk_stream.py``.
"""

import ctypes
import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.api.chunks import (
    ChunkBufferPool,
    ChunkStream,
    ChunkStreamStats,
    ReadaheadHinter,
    open_chunk_stream,
    plan_chunks,
)
import repro.api.chunks as chunks_module
from repro.api.sharded import ShardedMatrix, write_sharded_dataset


@pytest.fixture()
def sharded_matrix(tmp_path):
    """A 60x4 matrix with labels split across shards of 13 rows (5 shards)."""
    X = np.arange(240.0).reshape(60, 4)
    y = np.arange(60) % 3
    write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=13)
    return ShardedMatrix(tmp_path / "ds"), X, y


def _write_synced(path, data):
    """Write ``data`` to ``path`` (``None`` keeps its bytes) and fsync it."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        if data is not None:
            os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def _resident_fraction(path) -> float:
    """Share of ``path``'s pages in the page cache, read with ``mincore(2)``."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mincore.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
    view = np.memmap(path, dtype=np.uint8, mode="r")
    try:
        pages = -(-view.size // os.sysconf("SC_PAGE_SIZE"))
        vec = np.zeros(pages, dtype=np.uint8)
        if libc.mincore(view.ctypes.data, view.size, vec.ctypes.data) != 0:
            raise OSError(ctypes.get_errno(), "mincore failed")
    finally:
        view._mmap.close()
    return float(np.count_nonzero(vec & 1)) / pages


class TestReaderPoolSizing:
    @pytest.mark.parametrize("io_workers", [0, -1])
    def test_reader_count_is_at_least_one(self, io_workers):
        with pytest.raises(ValueError, match="io_workers must be >= 1"):
            open_chunk_stream(np.zeros((40, 3)), chunk_rows=5, io_workers=io_workers)

    def test_explicit_reader_count_is_exact(self, sharded_matrix):
        matrix, X, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=3) as stream:
            pieces = [np.asarray(c.X).copy() for c in stream]
        assert (stream.io_workers, stream.depth) == (3, 6)
        np.testing.assert_array_equal(np.concatenate(pieces), X)

    def test_readers_never_outnumber_chunks(self):
        with open_chunk_stream(np.zeros((10, 3)), chunk_rows=5, io_workers=8) as stream:
            list(stream)
        assert stream.io_workers == 2

    def test_reader_accounting_covers_every_chunk(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=4) as stream:
            chunks = list(stream)
        assert sum(entry["chunks"] for entry in stream.reader_stats) == len(chunks)
        assert sum(entry["rows"] for entry in stream.reader_stats) == 60
        logged = sorted(
            bound for log in stream.reader_log for bound in log
        )
        assert logged == sorted(stream.plan.bounds)


class TestZeroCopyFastPath:
    def test_aligned_chunks_are_zero_copy_views(self, sharded_matrix):
        # The perf fast path: a shard-aligned chunk is served as a contiguous
        # view of the shard's memmap — no defensive copy, no buffer lease.
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=4) as stream:
            for chunk in stream:
                assert chunk.lease is None
                assert any(
                    np.shares_memory(chunk.X, shard_map) for shard_map in matrix._maps
                )

    def test_aligned_plan_allocates_no_buffer_pool(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2) as stream:
            list(stream)
        assert stream.pool is None

    def test_straddling_chunks_do_not_share_memory_with_shards(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(
            matrix, chunk_rows=9, align_shards=False, io_workers=2
        ) as stream:
            for chunk in stream:
                if chunk.lease is not None:
                    assert not any(
                        np.shares_memory(chunk.X, shard_map)
                        for shard_map in matrix._maps
                    )
                chunk.release()


class TestBufferPool:
    def test_in_flight_chunks_never_alias(self, sharded_matrix):
        matrix, X, _ = sharded_matrix
        held = []
        # A ring large enough to hold every chunk at once.
        ring = ChunkBufferPool(buffers=16, chunk_rows=9, n_cols=4, dtype=matrix.dtype)
        with open_chunk_stream(
            matrix, chunk_rows=9, align_shards=False, io_workers=2, buffer_pool=ring,
        ) as stream:
            for chunk in stream:
                held.append(chunk)
        buffered = [c for c in held if c.lease is not None]
        assert len(buffered) >= 2  # the 13-row shards straddle 9-row chunks
        for i, a in enumerate(buffered):
            for b in buffered[i + 1 :]:
                assert not np.shares_memory(a.X, b.X)
        # Content stays intact while every chunk is still leased.
        np.testing.assert_array_equal(
            np.concatenate([np.asarray(c.X) for c in held]), X
        )
        for chunk in held:
            chunk.release()

    def test_buffers_are_reused_across_chunks(self, sharded_matrix):
        matrix, X, _ = sharded_matrix
        pool = ChunkBufferPool(buffers=2, chunk_rows=9, n_cols=4, dtype=np.float64,
                               label_dtype=np.int64)
        with open_chunk_stream(
            matrix, labels=matrix.lazy_labels, chunk_rows=9, align_shards=False,
            io_workers=2, buffer_pool=pool,
        ) as stream:
            total = 0
            for chunk in stream:
                total += chunk.rows
                chunk.release()
        assert total == 60
        # More leases served than buffers exist: the ring recycled.
        assert pool.leases_served > pool.buffers
        # Every buffer came home after the stream closed.
        assert pool.available == pool.buffers

    def test_double_release_raises(self):
        pool = ChunkBufferPool(buffers=1, chunk_rows=4, n_cols=2, dtype=np.float64)
        lease = pool.lease()
        assert pool.available == 0
        lease.release()
        assert pool.available == 1
        with pytest.raises(RuntimeError, match="released more than once"):
            lease.release()
        assert pool.available == 1  # the buffer went home once

    def test_leases_served_counts_every_lease_of_racing_readers(self):
        # Two readers lease and release one 2-buffer ring, yielding the
        # interpreter lock at every opcode of a lease, so a read-modify-write
        # of a count both threads share would lose increments.  The count is
        # each buffer's own, written only by the thread that just took it.
        pool = ChunkBufferPool(buffers=2, chunk_rows=4, n_cols=2, dtype=np.float64)
        rounds, threads = 300, 2

        def switching(frame, event, arg):
            if frame.f_code.co_name not in ("lease", "_activate"):
                return None
            frame.f_trace_opcodes = True
            if event == "opcode":
                time.sleep(0)  # releases the GIL: the other reader may run
            return switching

        def churn():
            sys.settrace(switching)
            try:
                for _ in range(rounds):
                    pool.lease().release()
            finally:
                sys.settrace(None)

        workers = [threading.Thread(target=churn) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        assert not any(worker.is_alive() for worker in workers)
        assert pool.leases_served == rounds * threads
        assert pool.available == pool.buffers

    def test_invalid_pool_geometry_rejected(self):
        with pytest.raises(ValueError, match="at least 1 buffer"):
            ChunkBufferPool(buffers=0, chunk_rows=4, n_cols=2, dtype=np.float64)
        with pytest.raises(ValueError, match="geometry"):
            ChunkBufferPool(buffers=1, chunk_rows=0, n_cols=2, dtype=np.float64)

    def test_nbytes_bounds_peak_memory(self):
        pool = ChunkBufferPool(buffers=3, chunk_rows=10, n_cols=4,
                               dtype=np.float64, label_dtype=np.int64)
        assert pool.nbytes == 3 * (10 * 4 * 8 + 10 * 8)

    def test_ring_smaller_than_window_does_not_deadlock(self, sharded_matrix):
        # Deadlock regression: with a 1-buffer ring and a wider reorder
        # window, readers of later chunks could lease the only buffer while
        # their chunks sat unconsumable in plan order, starving the reader of
        # the next-expected chunk forever.  The window is now clamped to the
        # ring size.
        matrix, X, _ = sharded_matrix
        for _ in range(5):  # the hang was racy: give it a few chances
            ring = ChunkBufferPool(buffers=1, chunk_rows=9, n_cols=4, dtype=matrix.dtype)
            with open_chunk_stream(
                matrix, chunk_rows=9, align_shards=False,
                io_workers=2, buffer_pool=ring,
            ) as stream:
                assert stream.depth <= 1
                pieces = []
                for chunk in stream:
                    pieces.append(np.asarray(chunk.X).copy())
                    chunk.release()
            np.testing.assert_array_equal(np.concatenate(pieces), X)

    @pytest.mark.parametrize("ring", [1, 2])
    def test_a_slow_head_read_still_finds_a_buffer(self, tmp_path, monkeypatch, ring):
        # The second chunk's reader dawdles before it leases, so the readers
        # of later chunks lease first (a decoded chunk always takes a
        # buffer).  The reads in flight must never outnumber the ring, or the
        # slow read waits for a buffer held only by later chunks, which
        # cannot be consumed before it.
        real = chunks_module.ReadaheadHinter.will_need

        def slow(self, start, stop):
            if start == 7:
                time.sleep(0.1)
            return real(self, start, stop)

        monkeypatch.setattr(chunks_module.ReadaheadHinter, "will_need", slow)
        X = np.arange(240.0).reshape(60, 4)
        write_sharded_dataset(tmp_path / "ds", X, shard_rows=13, codec="zlib", block_rows=5)
        matrix = ShardedMatrix(tmp_path / "ds")
        pool = ChunkBufferPool(buffers=ring, chunk_rows=7, n_cols=4, dtype=matrix.dtype)
        with open_chunk_stream(
            matrix, chunk_rows=7, io_workers=2, buffer_pool=pool, stall_timeout_s=2.0,
        ) as stream:
            assert stream.depth == ring
            pieces = []
            for chunk in stream:
                pieces.append(np.asarray(chunk.X).copy())
                chunk.release()
        np.testing.assert_array_equal(np.concatenate(pieces), X)
        matrix.close()

    def test_float_labels_without_dtype_survive_pool_path(self, sharded_matrix):
        # Dtype regression: labels passed as a plain list used to default the
        # ring's label buffers to int64, so stitched chunks crashed casting
        # float labels.  The pool now probes the actual element dtype.
        matrix, _, _ = sharded_matrix
        labels = [float(i) + 0.5 for i in range(60)]
        with open_chunk_stream(
            matrix, labels=labels, chunk_rows=9, align_shards=False, io_workers=2
        ) as stream:
            got = []
            for chunk in stream:
                got.append(np.asarray(chunk.y).copy())
                chunk.release()
        np.testing.assert_array_equal(np.concatenate(got), np.asarray(labels))


class TestReadaheadHints:
    def test_hints_counted_on_sharded_memmaps(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2) as stream:
            list(stream)
        # One SEQUENTIAL per shard at open plus one WILLNEED per chunk —
        # all of which Linux supports, so every hint applies.
        assert stream.stats.hints_applied >= stream.plan.num_chunks
        assert stream.stats.as_dict()["hints_applied"] == stream.stats.hints_applied

    def test_delta_plan_hints_only_the_shards_it_covers(self, tmp_path):
        # The trainer's case: a row_range plan over the tail of a many-shard
        # dataset.  One SEQUENTIAL for the one shard the plan touches plus
        # one WILLNEED per chunk — not one madvise per shard per stream.
        X = np.zeros((160, 4))
        write_sharded_dataset(tmp_path / "wide", X, shard_rows=10)  # 16 shards
        matrix = ShardedMatrix(tmp_path / "wide")
        plan = plan_chunks(matrix, chunk_rows=4, row_range=(150, 160))
        with open_chunk_stream(matrix, plan=plan) as stream:
            assert len(stream.hinter._segments) == 1
            list(stream)
        assert 0 < stream.stats.hints_applied <= 1 + plan.num_chunks
        # A bare hinter still resolves (and can hint) every shard.
        with ReadaheadHinter(matrix) as hinter:
            assert hinter.advise_sequential() == 16
            assert hinter.will_need(95, 125) == 4  # shards 9, 10, 11, 12

    def test_plain_ndarray_is_unhintable_noop(self):
        hinter = ReadaheadHinter(np.zeros((10, 3)))
        assert not hinter.supported
        assert hinter.advise_sequential() == 0
        assert hinter.will_need(0, 10) == 0
        assert hinter.dont_need(0, 10) == 0

    def test_madvise_unavailable_falls_back_to_fadvise(self, sharded_matrix, monkeypatch):
        # Model a platform without mmap.madvise (e.g. older macOS builds):
        # the hinter must fall through to posix_fadvise on the shard files.
        matrix, _, _ = sharded_matrix
        monkeypatch.setattr(
            ReadaheadHinter, "_madvise", staticmethod(lambda *args: False)
        )
        with ReadaheadHinter(matrix) as hinter:
            assert hinter.supported
            assert hinter.will_need(0, 30) > 0

    @pytest.mark.skipif(not hasattr(os, "posix_fadvise"), reason="no posix_fadvise")
    def test_racing_fadvise_fallbacks_leak_no_descriptor(self, sharded_matrix, monkeypatch):
        # Two readers hint the same shards at once through the fadvise
        # fallback, whose descriptors open at first use.  A slow open makes
        # both miss each file; one descriptor per file is kept, the other
        # closed at once, and close() closes the kept ones.
        matrix, _, _ = sharded_matrix
        monkeypatch.setattr(
            ReadaheadHinter, "_madvise", staticmethod(lambda *args: False)
        )
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def slow_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if str(path).endswith(".m3b"):
                opened.append(fd)
                time.sleep(0.02)
            return fd

        def counted_close(fd):
            if fd in opened:
                closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", slow_open)
        monkeypatch.setattr(os, "close", counted_close)
        hinter = ReadaheadHinter(matrix)
        start = threading.Barrier(2)

        def hint():
            start.wait(timeout=10.0)
            hinter.will_need(0, 60)

        readers = [threading.Thread(target=hint) for _ in range(2)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30.0)
        assert not any(reader.is_alive() for reader in readers)
        assert len(opened) > matrix.num_shards  # the readers did race
        assert len(opened) - len(closed) == matrix.num_shards  # one kept per file
        hinter.close()
        assert sorted(closed) == sorted(opened)

    def test_no_os_support_degrades_to_counted_noop(self, sharded_matrix, monkeypatch):
        # Neither madvise nor fadvise: hints count zero, the stream still runs.
        matrix, X, _ = sharded_matrix
        monkeypatch.setattr(
            ReadaheadHinter, "_madvise", staticmethod(lambda *args: False)
        )
        monkeypatch.setattr(
            ReadaheadHinter, "_fadvise", staticmethod(lambda *args: False)
        )
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2) as stream:
            got = np.concatenate([np.asarray(c.X).copy() for c in stream])
        np.testing.assert_array_equal(got, X)
        assert stream.stats.hints_applied == 0

    def test_hints_can_be_disabled(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2, hints=False) as stream:
            list(stream)
        assert stream.hinter is None
        assert stream.stats.hints_applied == 0

    def test_dont_need_releases_consumed_ranges(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with ReadaheadHinter(matrix) as hinter:
            assert hinter.dont_need(0, 13) > 0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not hasattr(os, "posix_fadvise"),
        reason="mincore residency and posix_fadvise eviction are Linux-only",
    )
    def test_dont_need_evicts_mapped_shards_from_page_cache(self, tmp_path):
        # MADV_DONTNEED on a shared file mapping only unmaps this process's
        # pages; the page cache must actually drop them, which takes a
        # posix_fadvise on the shard file.
        control = tmp_path / "control.bin"
        _write_synced(control, np.ones(512 * 1024, dtype=np.float64).tobytes())
        control.read_bytes()
        fd = os.open(control, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)
        if _resident_fraction(control) > 0.5:
            pytest.skip("posix_fadvise(DONTNEED) does not evict on this filesystem")

        X = np.arange(512 * 1024, dtype=np.float64).reshape(512, 1024)
        write_sharded_dataset(tmp_path / "ds", X, shard_rows=256)
        matrix = ShardedMatrix(tmp_path / "ds")
        try:
            paths = [matrix.directory / shard.filename for shard in matrix.manifest.shards]
            for path in paths:
                _write_synced(path, None)
            scanned = sum(np.asarray(matrix[start:start + 256]).sum() for start in (0, 256))
            assert scanned == X.sum()
            assert min(_resident_fraction(path) for path in paths) > 0.9
            with ReadaheadHinter(matrix) as hinter:
                assert hinter.dont_need(0, 512) == len(paths)
            assert max(_resident_fraction(path) for path in paths) < 0.5
        finally:
            matrix.close()

    def test_stats_merge_folds_hints(self):
        a = ChunkStreamStats()
        a.record_hints(3)
        b = ChunkStreamStats()
        b.record_hints(4)
        a.merge(b)
        assert a.hints_applied == 7


class TestShutdownHardening:
    def test_close_after_exhaustion_is_silent_and_leaves_no_thread(self, sharded_matrix):
        # The readers wound down when the stream ran out; closing it then,
        # and again, has nothing left to stop and must not raise.
        matrix, _, _ = sharded_matrix
        before = set(threading.enumerate())
        stream = open_chunk_stream(matrix, chunk_rows=7, io_workers=2)
        list(stream)
        stream.close()
        stream.close()
        assert set(threading.enumerate()) == before

    def test_failed_construction_starts_nothing_to_wind_down(self, sharded_matrix):
        # A constructor that raises leaves a partial instance to the
        # collector: it must hold no thread and need no finalizer.
        matrix, _, _ = sharded_matrix
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="labels"):
            ChunkStream(matrix, np.zeros(3), plan_chunks(matrix, chunk_rows=7))
        gc.collect()
        assert set(threading.enumerate()) == before


class TestGatherInto:
    def test_sharded_matrix_gather_into_matches_slicing(self, sharded_matrix):
        matrix, X, _ = sharded_matrix
        out = np.empty((20, 4), dtype=np.float64)
        view = matrix.gather_into(5, 25, out)  # straddles shards 0/1/2
        np.testing.assert_array_equal(view, X[5:25])
        assert np.shares_memory(view, out)

    def test_sharded_labels_gather_into_matches_slicing(self, sharded_matrix):
        matrix, _, y = sharded_matrix
        out = np.empty(20, dtype=np.int64)
        view = matrix.lazy_labels.gather_into(5, 25, out)
        np.testing.assert_array_equal(view, y[5:25])
        assert np.shares_memory(view, out)

    def test_too_small_buffer_rejected(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with pytest.raises(ValueError, match="cannot hold"):
            matrix.gather_into(0, 30, np.empty((5, 4)))
        with pytest.raises(ValueError, match="needs"):
            matrix.lazy_labels.gather_into(0, 30, np.empty(5, dtype=np.int64))


class TestReleaseBehind:
    """``dont_need`` pages behind the cursor on strictly-forward big scans."""

    def test_forced_release_counts_hints_and_stays_correct(self, sharded_matrix):
        matrix, X, y = sharded_matrix
        with open_chunk_stream(
            matrix, labels=matrix.lazy_labels, chunk_rows=7,
            io_workers=2, release_behind=True,
        ) as stream:
            pieces = [np.asarray(c.X).copy() for c in stream]
        np.testing.assert_array_equal(np.concatenate(pieces), X)
        # Shard memmaps are hintable on Linux/macOS; elsewhere the count is
        # an honest zero (dont_need degraded to a no-op).
        assert stream.stats.hints_released >= 0
        if stream.hinter is not None and stream.hinter.supported:
            assert stream.stats.hints_released > 0
        assert stream.stats.as_dict()["hints_released"] == stream.stats.hints_released

    def test_release_defaults_off_for_in_ram_scans(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2) as stream:
            list(stream)
        assert stream.release_behind is False
        assert stream.stats.hints_released == 0

    def test_release_auto_enables_when_scan_exceeds_ram(self, sharded_matrix, monkeypatch):
        matrix, X, _ = sharded_matrix
        # Pretend the machine has 1 KB of RAM: the 60x4 float64 scan (1920 B)
        # is now "larger than RAM" and the auto mode must kick in.
        monkeypatch.setattr(chunks_module, "_physical_ram_bytes", lambda: 1024)
        with open_chunk_stream(matrix, chunk_rows=7, io_workers=2) as stream:
            pieces = [np.asarray(c.X).copy() for c in stream]
        assert stream.release_behind is True
        np.testing.assert_array_equal(np.concatenate(pieces), X)

    def test_release_requires_hints(self, sharded_matrix):
        # hints=False means there is no hinter to issue dont_need through.
        matrix, _, _ = sharded_matrix
        with open_chunk_stream(
            matrix, chunk_rows=7, io_workers=2, hints=False, release_behind=True
        ) as stream:
            list(stream)
        assert stream.release_behind is False
        assert stream.stats.hints_released == 0

    def test_release_cursor_never_touches_unconsumed_rows(self, sharded_matrix):
        matrix, X, _ = sharded_matrix
        released = []
        with open_chunk_stream(
            matrix, chunk_rows=7, io_workers=2, release_behind=True
        ) as stream:
            original = stream.hinter.dont_need
            stream.hinter.dont_need = lambda start, stop: (
                released.append((start, stop)), original(start, stop)
            )[1]
            consumed = []
            for chunk in stream:
                # Everything released so far lies strictly before the chunk
                # the consumer saw *before* this one.
                if released:
                    assert max(stop for _, stop in released) <= consumed[-1]
                consumed.append(chunk.start)
        assert released, "a forward scan with release_behind must release pages"
