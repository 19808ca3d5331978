"""Tests for chunk planning."""

import numpy as np
import pytest

from repro.core.chunking import ChunkPlan, iter_chunks, plan_chunks
from repro.vmem.trace import AccessKind


class TestChunkPlan:
    def test_bounds_cover_all_rows(self):
        plan = ChunkPlan(n_rows=10, n_cols=4, itemsize=8, chunk_rows=3)
        assert list(plan.bounds()) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert plan.num_chunks == 4

    def test_byte_ranges_are_contiguous(self):
        plan = ChunkPlan(n_rows=6, n_cols=2, itemsize=8, chunk_rows=2, data_offset=64)
        ranges = list(plan.byte_ranges())
        assert ranges[0] == (64, 2 * 16)
        for (off_a, len_a), (off_b, _) in zip(ranges, ranges[1:]):
            assert off_b == off_a + len_a

    def test_totals(self):
        plan = ChunkPlan(n_rows=100, n_cols=784, itemsize=8, chunk_rows=32)
        assert plan.row_bytes == 6272
        assert plan.total_bytes == 627200

    def test_empty_plan_has_no_chunks(self):
        plan = ChunkPlan(n_rows=0, n_cols=3, itemsize=8, chunk_rows=4)
        assert plan.num_chunks == 0
        assert list(plan.bounds()) == []
        assert plan.total_bytes == 0
        assert len(plan.to_trace()) == 0

    def test_chunk_taller_than_matrix_is_one_chunk(self):
        plan = ChunkPlan(n_rows=5, n_cols=2, itemsize=4, chunk_rows=100, data_offset=16)
        assert plan.num_chunks == 1
        assert list(plan.bounds()) == [(0, 5)]
        assert list(plan.byte_ranges()) == [(16, 40)]

    def test_to_trace_single_pass(self):
        plan = ChunkPlan(n_rows=8, n_cols=2, itemsize=8, chunk_rows=4)
        trace = plan.to_trace(passes=1, cpu_seconds_per_byte=1e-9)
        assert len(trace) == 2
        assert trace.total_bytes == plan.total_bytes
        assert trace.total_cpu_cost_s == pytest.approx(plan.total_bytes * 1e-9)
        assert trace.sequential_fraction() == 1.0

    def test_to_trace_multiple_passes(self):
        plan = ChunkPlan(n_rows=8, n_cols=2, itemsize=8, chunk_rows=4)
        trace = plan.to_trace(passes=3)
        assert trace.total_bytes == 3 * plan.total_bytes

    def test_to_trace_write_kind(self):
        plan = ChunkPlan(n_rows=4, n_cols=2, itemsize=8, chunk_rows=4)
        trace = plan.to_trace(kind=AccessKind.WRITE)
        assert all(record.kind is AccessKind.WRITE for record in trace)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChunkPlan(n_rows=-1, n_cols=2, itemsize=8, chunk_rows=1)
        with pytest.raises(ValueError):
            ChunkPlan(n_rows=2, n_cols=2, itemsize=8, chunk_rows=0)
        with pytest.raises(ValueError):
            ChunkPlan(n_rows=2, n_cols=2, itemsize=0, chunk_rows=1)
        plan = ChunkPlan(n_rows=2, n_cols=2, itemsize=8, chunk_rows=1)
        with pytest.raises(ValueError):
            plan.to_trace(passes=0)


class TestPlanAndIterChunks:
    def test_plan_from_ndarray(self):
        X = np.zeros((20, 5))
        plan = plan_chunks(X, chunk_rows=8)
        assert plan.n_rows == 20
        assert plan.n_cols == 5
        assert plan.itemsize == 8

    def test_plan_uses_matrix_data_offset(self):
        class FakeMatrix:
            shape = (4, 2)
            dtype = np.dtype(np.float64)
            data_offset = 128

        assert plan_chunks(FakeMatrix(), chunk_rows=2).data_offset == 128

    def test_explicit_data_offset_wins(self):
        class FakeMatrix:
            shape = (4, 2)
            dtype = np.dtype(np.float64)
            data_offset = 128

        assert plan_chunks(FakeMatrix(), chunk_rows=2, data_offset=256).data_offset == 256

    def test_iter_chunks_yields_float64_chunks(self):
        X = np.arange(12, dtype=np.float32).reshape(6, 2)
        chunks = list(iter_chunks(X, chunk_rows=4))
        assert len(chunks) == 2
        assert chunks[0].dtype == np.float64
        np.testing.assert_array_equal(np.vstack(chunks), X.astype(np.float64))

    def test_plan_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            plan_chunks(np.zeros(5), chunk_rows=2)

    def test_iter_chunks_over_memmap(self, tmp_path):
        X = np.arange(30, dtype=np.float64).reshape(10, 3)
        mapped = np.memmap(tmp_path / "x.bin", dtype=np.float64, mode="w+", shape=X.shape)
        mapped[:] = X
        mapped.flush()
        reopened = np.memmap(tmp_path / "x.bin", dtype=np.float64, mode="r", shape=X.shape)
        chunks = list(iter_chunks(reopened, chunk_rows=4))
        assert [chunk.shape[0] for chunk in chunks] == [4, 4, 2]
        assert all(type(chunk) is np.ndarray for chunk in chunks)
        np.testing.assert_array_equal(np.vstack(chunks), X)
