"""Tests for the chunk pipeline: plans, stream stats and read/compute overlap.

The executor's behaviour matrix (reader counts × storage kinds) lives in
``test_chunk_stream.py``.
"""

import time

import numpy as np
import pytest

from repro.api.chunks import ChunkStreamStats, open_chunk_stream, plan_chunks
from repro.api.sharded import ShardedMatrix, write_sharded_dataset


@pytest.fixture()
def sharded_matrix(tmp_path):
    """A 25x4 matrix with labels split across shards of 7 rows."""
    X = np.arange(100.0).reshape(25, 4)
    y = np.arange(25) % 3
    write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=7)
    return ShardedMatrix(tmp_path / "ds"), X, y


def _covers(bounds, n_rows):
    """Bounds tile [0, n_rows) contiguously in order."""
    expected = 0
    for start, stop in bounds:
        assert start == expected and stop > start
        expected = stop
    assert expected == n_rows


class TestPlanChunks:
    def test_fixed_chunks_with_partial_tail(self):
        plan = plan_chunks(np.zeros((10, 3)), chunk_rows=4)
        assert plan.bounds == ((0, 4), (4, 8), (8, 10))
        _covers(plan.bounds, 10)

    def test_chunk_rows_larger_than_matrix(self):
        plan = plan_chunks(np.zeros((5, 3)), chunk_rows=1000)
        assert plan.bounds == ((0, 5),)

    def test_empty_matrix(self):
        plan = plan_chunks(np.zeros((0, 3)), chunk_rows=4)
        assert plan.bounds == ()
        assert plan.num_chunks == 0

    @pytest.mark.parametrize("bad", [0, -1, -1000])
    def test_invalid_chunk_rows_rejected(self, bad):
        # The plan layer must reject non-positive windows outright — a zero
        # window would loop forever, a negative one would produce no chunks.
        with pytest.raises(ValueError, match="chunk_rows must be positive"):
            plan_chunks(np.zeros((10, 3)), chunk_rows=bad)

    def test_shard_alignment_splits_at_boundaries(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        plan = plan_chunks(matrix, chunk_rows=5, align_shards=True)
        assert plan.aligned
        _covers(plan.bounds, 25)
        # Shards start at 0, 7, 14, 21: no chunk may straddle those rows.
        for start, stop in plan.bounds:
            for boundary in (7, 14, 21):
                assert not (start < boundary < stop)

    def test_alignment_can_be_disabled(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        plan = plan_chunks(matrix, chunk_rows=5, align_shards=False)
        assert not plan.aligned
        assert plan.bounds == ((0, 5), (5, 10), (10, 15), (15, 20), (20, 25))

    def test_adaptive_ramp_doubles_up_to_window(self):
        # 1 KiB rows: the auto window is DEFAULT_CHUNK_BYTES / 1 KiB = 8192
        # rows, the ramp starts at INITIAL_CHUNK_BYTES / 1 KiB = 1024 rows.
        plan = plan_chunks(np.zeros((20000, 128)), chunk_rows=None)
        sizes = [stop - start for start, stop in plan.bounds]
        assert sizes[0] == 1024
        assert sizes[1] == 2048
        assert max(sizes) <= plan.chunk_rows
        _covers(plan.bounds, 20000)


class TestStreamValidation:
    def test_label_length_mismatch_rejected(self, sharded_matrix):
        matrix, _, _ = sharded_matrix
        with pytest.raises(ValueError, match="labels"):
            open_chunk_stream(matrix, labels=np.zeros(7), chunk_rows=4)


class TestIoOverlap:
    """`io_overlap` distinguishes 'no reads' from 'fully hidden reads'."""

    def test_no_reads_is_undefined_not_perfect(self):
        stats = ChunkStreamStats()
        assert stats.read_s == 0.0
        assert stats.io_overlap is None
        assert stats.as_dict()["io_overlap"] is None

    def test_hidden_reads_are_perfect_overlap(self):
        stats = ChunkStreamStats()
        stats.record(read_s=0.5, wait_s=0.0, compute_s=1.0, rows=10, nbytes=80)
        assert stats.io_overlap == 1.0

    def test_synchronous_reads_are_zero_overlap(self):
        stats = ChunkStreamStats()
        stats.record(read_s=0.5, wait_s=0.5, compute_s=0.0, rows=10, nbytes=80)
        assert stats.io_overlap == 0.0

    def test_samples_keep_the_most_recent_chunks(self):
        from repro.api.chunks import MAX_TIMING_SAMPLES

        early, late = ChunkStreamStats(), ChunkStreamStats()
        for _ in range(MAX_TIMING_SAMPLES):
            early.record(read_s=0.001, wait_s=0.0, compute_s=0.0, rows=1, nbytes=8)
        for _ in range(1000):
            late.record(read_s=0.050, wait_s=0.0, compute_s=0.0, rows=1, nbytes=8)
        early.merge(late)
        assert early.chunks == MAX_TIMING_SAMPLES + 1000
        assert len(early.samples) == MAX_TIMING_SAMPLES
        assert [sample[0] for sample in early.samples][-1000:] == [0.050] * 1000
        assert early.samples[0][0] == 0.001

    def test_empty_stream_reports_undefined_overlap(self):
        stream = open_chunk_stream(np.zeros((0, 3)), chunk_rows=4, prefetch=False)
        list(stream)
        assert stream.stats.chunks == 0
        assert stream.stats.io_overlap is None


class _SlowMatrix:
    """A matrix whose row reads take a fixed amount of wall time."""

    def __init__(self, X, delay_s):
        self._X = X
        self.delay_s = delay_s
        self.shape = X.shape
        self.dtype = X.dtype

    def __getitem__(self, key):
        time.sleep(self.delay_s)
        return self._X[key]


class TestReadComputeOverlap:
    def test_overlaps_reads_with_compute(self):
        # 8 chunks x 20ms read, consumer computes ~20ms per chunk: with
        # double buffering nearly every read hides behind compute, so the
        # consumer-visible wait must be far below the reader's read time.
        X = _SlowMatrix(np.random.default_rng(0).normal(size=(64, 4)), delay_s=0.02)
        with open_chunk_stream(X, chunk_rows=8) as stream:
            for _ in stream:
                time.sleep(0.02)
        stats = stream.stats
        assert stats.chunks == 8
        assert stats.read_s >= 8 * 0.02
        # All reads but the first overlap with compute; allow generous slack
        # for scheduler jitter on CI machines.
        assert stats.io_wait_s < 0.5 * stats.read_s
        assert stats.io_overlap > 0.5

    def test_last_chunk_compute_time_recorded(self):
        # Compute time is measured between deliveries; the time spent on the
        # final chunk must be folded in when the stream reports exhaustion —
        # the single-chunk case would otherwise claim zero compute.
        for prefetch in (False, True):
            with open_chunk_stream(np.zeros((8, 2)), chunk_rows=100, prefetch=prefetch) as stream:
                for _ in stream:
                    time.sleep(0.02)
            assert stream.stats.chunks == 1
            assert stream.stats.compute_s >= 0.015
            assert stream.stats.samples[-1][2] >= 0.015

    def test_inline_stream_records_full_wait(self):
        X = _SlowMatrix(np.zeros((16, 2)), delay_s=0.005)
        stream = open_chunk_stream(X, chunk_rows=4, prefetch=False)
        list(stream)
        # Inline reads cannot hide behind compute: wait equals read time.
        assert stream.stats.io_wait_s == stream.stats.read_s
        assert stream.stats.io_overlap == 0.0


class TestPlanUnwrapping:
    def test_dataset_input_keeps_shard_alignment(self, tmp_path):
        from repro.api import Session

        X = np.arange(100.0).reshape(25, 4)
        with Session() as session:
            spec = f"shard://{tmp_path}/plan_ds"
            session.create(spec, X, shard_rows=7)
            dataset = session.open(spec)
            plan = plan_chunks(dataset, chunk_rows=5)
            assert plan.aligned
            for start, stop in plan.bounds:
                for boundary in (7, 14, 21):
                    assert not (start < boundary < stop)
