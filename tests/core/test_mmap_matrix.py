"""Tests for MmapMatrix."""

import numpy as np
import pytest

from repro.core.advice import AccessAdvice
from repro.core.mmap_matrix import MmapMatrix
from repro.data.formats import HEADER_SIZE, open_binary_matrix
from repro.vmem.trace import AccessKind, AccessTrace


@pytest.fixture()
def mapped(dataset_file):
    data, labels, _ = open_binary_matrix(dataset_file)
    return MmapMatrix(data, source_path=dataset_file, data_offset=HEADER_SIZE), labels


class TestArrayProtocol:
    def test_shape_dtype_len(self, mapped, small_classification):
        matrix, _ = mapped
        X, _ = small_classification
        assert matrix.shape == X.shape
        assert matrix.dtype == np.float64
        assert len(matrix) == X.shape[0]
        assert matrix.ndim == 2
        assert matrix.nbytes == X.shape[0] * X.shape[1] * 8

    def test_row_slicing_matches_source(self, mapped, small_classification):
        matrix, _ = mapped
        X, _ = small_classification
        np.testing.assert_allclose(np.asarray(matrix[10:20]), X[10:20])

    def test_fancy_and_scalar_indexing(self, mapped, small_classification):
        matrix, _ = mapped
        X, _ = small_classification
        np.testing.assert_allclose(np.asarray(matrix[3]), X[3])
        np.testing.assert_allclose(np.asarray(matrix[[1, 5, 7]]), X[[1, 5, 7]])

    def test_np_asarray_materialises(self, mapped, small_classification):
        matrix, _ = mapped
        X, _ = small_classification
        np.testing.assert_allclose(np.asarray(matrix), X)

    def test_wraps_plain_ndarray_too(self, small_classification):
        X, _ = small_classification
        matrix = MmapMatrix(X)
        assert matrix.is_memory_mapped is False
        np.testing.assert_array_equal(matrix[0:4], X[0:4])

    def test_is_memory_mapped_flag(self, mapped):
        matrix, _ = mapped
        assert matrix.is_memory_mapped is True

    def test_non_2d_backing_rejected(self):
        with pytest.raises(ValueError):
            MmapMatrix(np.zeros(5))

    def test_repr_mentions_source(self, mapped, dataset_file):
        matrix, _ = mapped
        assert dataset_file.name in repr(matrix)
        assert "memmap" in repr(matrix)


class TestTraceRecording:
    def test_row_slices_recorded_with_file_offsets(self, dataset_file):
        data, _, _ = open_binary_matrix(dataset_file)
        trace = AccessTrace()
        matrix = MmapMatrix(data, trace=trace, data_offset=HEADER_SIZE)
        _ = matrix[0:10]
        _ = matrix[10:20]
        assert len(trace) == 2
        row_bytes = matrix.shape[1] * 8
        assert trace.records[0].offset == HEADER_SIZE
        assert trace.records[0].length == 10 * row_bytes
        assert trace.records[1].offset == HEADER_SIZE + 10 * row_bytes

    def test_sequential_scan_has_sequential_trace(self, dataset_file):
        data, _, _ = open_binary_matrix(dataset_file)
        trace = AccessTrace()
        matrix = MmapMatrix(data, trace=trace, data_offset=HEADER_SIZE)
        for start in range(0, matrix.shape[0], 50):
            _ = matrix[start : start + 50]
        assert trace.sequential_fraction() == 1.0

    def test_write_recorded_as_write(self, tmp_path):
        backing = np.zeros((20, 4))
        trace = AccessTrace()
        matrix = MmapMatrix(backing, trace=trace)
        matrix[5:10] = 1.0
        assert trace.records[0].kind is AccessKind.WRITE

    def test_scalar_and_fancy_index_bounds(self):
        trace = AccessTrace()
        matrix = MmapMatrix(np.zeros((30, 2)), trace=trace)
        _ = matrix[7]
        _ = matrix[[2, 9, 4]]
        assert trace.records[0].offset == 7 * 16
        assert trace.records[0].length == 16
        assert trace.records[1].offset == 2 * 16
        assert trace.records[1].length == 8 * 16

    def test_attach_and_detach_trace(self):
        matrix = MmapMatrix(np.zeros((10, 2)))
        trace = AccessTrace()
        matrix.trace = trace
        _ = matrix[0:5]
        matrix.trace = None
        _ = matrix[5:10]
        assert len(trace) == 1

    def test_no_trace_by_default(self):
        matrix = MmapMatrix(np.zeros((10, 2)))
        _ = matrix[0:5]
        assert matrix.trace is None


class TestAdviceAndFlush:
    def test_set_advice_on_plain_array_returns_false(self):
        matrix = MmapMatrix(np.zeros((4, 4)))
        assert matrix.set_advice(AccessAdvice.RANDOM) is False

    def test_set_advice_on_memmap_does_not_error(self, mapped):
        matrix, _ = mapped
        # madvise may or may not be available; the call must never raise.
        result = matrix.set_advice(AccessAdvice.SEQUENTIAL)
        assert result in (True, False)

    def test_flush_writes_changes(self, tmp_path):
        from repro.data.formats import create_binary_matrix

        path = tmp_path / "rw.m3"
        create_binary_matrix(path, rows=4, cols=2)
        data, _, _ = open_binary_matrix(path, mode="r+")
        matrix = MmapMatrix(data, data_offset=HEADER_SIZE)
        matrix[0:2] = 5.0
        matrix.flush()
        reread, _, _ = open_binary_matrix(path)
        assert np.all(np.asarray(reread[0:2]) == 5.0)
