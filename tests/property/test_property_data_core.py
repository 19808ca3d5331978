"""Property-based tests for the data formats and the M3 core."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.core.mmap_matrix import MmapMatrix
from repro.data.formats import open_binary_matrix, write_binary_matrix
from repro.data.infimnist import InfimnistGenerator
from repro.vmem.trace import AccessTrace

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestBinaryFormatProperties:
    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 10)),
            elements=finite,
        ),
        with_labels=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip_is_lossless(self, tmp_path_factory, data, with_labels):
        tmp_path = tmp_path_factory.mktemp("fmt")
        path = tmp_path / "roundtrip.m3"
        labels = np.arange(data.shape[0]) % 7 if with_labels else None
        write_binary_matrix(path, data, labels)
        mapped, mapped_labels, header = open_binary_matrix(path)
        np.testing.assert_array_equal(np.asarray(mapped), data)
        assert header.rows == data.shape[0]
        if with_labels:
            np.testing.assert_array_equal(np.asarray(mapped_labels), labels)
        else:
            assert mapped_labels is None


class TestMmapMatrixProperties:
    @given(
        rows=st.integers(2, 60),
        cols=st.integers(1, 8),
        slices=st.lists(st.tuples(st.integers(0, 59), st.integers(1, 20)), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_byte_accounting_matches_slices(self, rows, cols, slices):
        backing = np.zeros((rows, cols))
        trace = AccessTrace()
        matrix = MmapMatrix(backing, trace=trace)
        expected_bytes = 0
        for start, length in slices:
            start = min(start, rows - 1)
            stop = min(start + length, rows)
            _ = matrix[start:stop]
            expected_bytes += (stop - start) * cols * 8
        assert trace.total_bytes == expected_bytes


class TestInfimnistProperties:
    @given(start=st.integers(0, 10_000), count=st.integers(1, 16), seed=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_batches_are_reproducible_and_labelled_by_index(self, start, count, seed):
        gen = InfimnistGenerator(seed=seed)
        X1, y1 = gen.batch(start, count)
        X2, y2 = InfimnistGenerator(seed=seed).batch(start, count)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(y1, (np.arange(start, start + count) % 10))
        assert X1.min() >= 0.0 and X1.max() <= 1.0
