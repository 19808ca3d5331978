"""Property-based tests for the machine-learning substrate."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings
from hypothesis.extra.numpy import arrays

from repro.api.chunks import plan_chunks
from repro.ml.cluster.kmeans import KMeans
from repro.ml.linear_model.objectives import (
    LogisticRegressionObjective,
    sigmoid,
    softmax,
)
from repro.ml.metrics import accuracy, clustering_purity
from repro.ml.preprocessing import MinMaxScaler, StandardScaler

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestNumericalProperties:
    @given(arrays(np.float64, st.integers(1, 30), elements=st.floats(-700, 700)))
    def test_sigmoid_bounded_and_monotone(self, z):
        values = sigmoid(z)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        order = np.argsort(z)
        assert np.all(np.diff(values[order]) >= -1e-12)

    @given(arrays(np.float64, (4, 6), elements=st.floats(-300, 300)))
    def test_softmax_is_a_distribution_and_shift_invariant(self, logits):
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        shifted = softmax(logits + 123.456)
        np.testing.assert_allclose(probabilities, shifted, atol=1e-9)


class TestObjectiveProperties:
    @given(
        n=st.integers(min_value=6, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        chunk=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunking_invariance_of_loss_and_gradient(self, n, d, chunk, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        assume(len(np.unique(y)) == 2)
        params = rng.normal(size=d + 1)
        chunked = LogisticRegressionObjective(X, y, chunk_size=chunk)
        whole = LogisticRegressionObjective(X, y, chunk_size=n)
        v1, g1 = chunked.value_and_gradient(params)
        v2, g2 = whole.value_and_gradient(params)
        assert np.isclose(v1, v2, atol=1e-10)
        np.testing.assert_allclose(g1, g2, atol=1e-10)


class TestScalerProperties:
    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(3, 40), st.integers(1, 5)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_standard_scaler_roundtrip(self, data):
        scaler = StandardScaler().fit(data)
        restored = scaler.inverse_transform(scaler.transform(data))
        np.testing.assert_allclose(restored, data, atol=1e-6)

    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(3, 40), st.integers(1, 5)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_minmax_scaler_output_in_range(self, data):
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() >= -1e-9
        assert scaled.max() <= 1.0 + 1e-9


class TestMetricProperties:
    @given(
        labels=st.lists(st.integers(0, 4), min_size=1, max_size=60),
    )
    def test_accuracy_of_identical_vectors_is_one(self, labels):
        y = np.asarray(labels)
        assert accuracy(y, y) == 1.0

    @given(labels=st.lists(st.integers(0, 4), min_size=2, max_size=60))
    def test_purity_bounded(self, labels):
        y = np.asarray(labels)
        assignments = np.zeros_like(y)
        purity = clustering_purity(y, assignments)
        assert 0.0 < purity <= 1.0


class TestKMeansProperties:
    @given(seed=st.integers(0, 50), k=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_inertia_never_increases_with_more_clusters(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        small = KMeans(n_clusters=k, max_iterations=10, seed=0).fit(X)
        larger = KMeans(n_clusters=k + 1, max_iterations=10, seed=0).fit(X)
        # More clusters can only reduce (or keep) the optimal inertia; allow a
        # small tolerance because Lloyd's algorithm is a local method.
        assert larger.inertia_ <= small.inertia_ * 1.05 + 1e-9


class TestChunkPlanProperties:
    @given(n=st.integers(0, 5000), chunk_rows=st.integers(1, 700))
    def test_bounds_partition_rows_exactly(self, n, chunk_rows):
        plan = plan_chunks(np.empty((n, 3)), chunk_rows=chunk_rows)
        bounds = list(plan)
        assert len(bounds) == plan.num_chunks
        previous_end = 0
        for start, stop in bounds:
            assert start == previous_end
            assert 0 < stop - start <= chunk_rows
            previous_end = stop
        assert previous_end == n
        # Every chunk but the last is full.
        assert all(stop - start == plan.chunk_rows for start, stop in bounds[:-1])

    @given(
        n=st.integers(0, 2000),
        cols=st.integers(1, 16),
        dtype=st.sampled_from([np.float32, np.float64]),
        chunk_rows=st.integers(1, 300),
    )
    def test_chunk_bytes_tile_the_matrix(self, n, cols, dtype, chunk_rows):
        plan = plan_chunks(np.empty((n, cols), dtype=dtype), chunk_rows=chunk_rows)
        assert plan.row_bytes == cols * np.dtype(dtype).itemsize
        assert sum((stop - start) * plan.row_bytes for start, stop in plan) == plan.total_bytes
