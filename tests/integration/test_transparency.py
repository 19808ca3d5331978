"""Integration tests for the M3 transparency property across the whole stack.

The central claim of the paper (Table 1) is that the *same* algorithm code
produces the *same* results whether its input lives in RAM or in a memory-
mapped file.  These tests exercise that end to end — dataset generation on
disk, Table 1's one changed line (``session.open(spec).arrays()``) and every
estimator family — comparing against in-memory training bit for bit.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.data.writers import write_infimnist_dataset
from repro.ml import (
    GaussianNaiveBayes,
    KMeans,
    LogisticRegression,
    PCA,
    SoftmaxRegression,
)
from repro.ml.preprocessing import StandardScaler


@pytest.fixture(scope="module")
def infimnist_on_disk(tmp_path_factory):
    path = tmp_path_factory.mktemp("integration") / "infimnist.m3"
    write_infimnist_dataset(path, num_examples=800, seed=17)
    return path


@pytest.fixture(scope="module")
def mapped(infimnist_on_disk):
    with Session() as session:
        X, y = session.open(f"mmap://{infimnist_on_disk}").arrays()
        yield X, np.asarray(y)


@pytest.fixture(scope="module")
def in_memory(mapped):
    X, y = mapped
    return np.asarray(X).copy(), y.copy()


class TestEstimatorTransparency:
    def test_binary_logistic_regression_identical(self, mapped, in_memory):
        X_map, y = mapped
        X_mem, _ = in_memory
        binary = (y >= 5).astype(np.int64)
        a = LogisticRegression(max_iterations=10).fit(X_mem, binary)
        b = LogisticRegression(max_iterations=10).fit(X_map, binary)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_

    def test_softmax_regression_identical(self, mapped, in_memory):
        X_map, y = mapped
        X_mem, _ = in_memory
        a = SoftmaxRegression(max_iterations=5).fit(X_mem, y)
        b = SoftmaxRegression(max_iterations=5).fit(X_map, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)

    def test_kmeans_identical(self, mapped, in_memory):
        X_map, _ = mapped
        X_mem, _ = in_memory
        a = KMeans(n_clusters=5, max_iterations=10, seed=0).fit(X_mem)
        b = KMeans(n_clusters=5, max_iterations=10, seed=0).fit(X_map)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)
        assert a.inertia_ == pytest.approx(b.inertia_)

    def test_naive_bayes_identical(self, mapped, in_memory):
        X_map, y = mapped
        X_mem, _ = in_memory
        a = GaussianNaiveBayes().fit(X_mem, y)
        b = GaussianNaiveBayes().fit(X_map, y)
        np.testing.assert_array_equal(a.theta_, b.theta_)
        np.testing.assert_array_equal(a.var_, b.var_)

    def test_pca_identical(self, mapped, in_memory):
        X_map, _ = mapped
        X_mem, _ = in_memory
        a = PCA(n_components=10).fit(X_mem)
        b = PCA(n_components=10).fit(X_map)
        np.testing.assert_allclose(a.explained_variance_, b.explained_variance_, rtol=1e-12)

    def test_scaler_identical(self, mapped, in_memory):
        X_map, _ = mapped
        X_mem, _ = in_memory
        a = StandardScaler().fit(X_mem)
        b = StandardScaler().fit(X_map)
        np.testing.assert_array_equal(a.mean_, b.mean_)
        np.testing.assert_array_equal(a.scale_, b.scale_)


class TestTraceCapture:
    def test_training_produces_sequential_trace(self, infimnist_on_disk):
        with Session() as session:
            X, y = session.open(f"mmap://{infimnist_on_disk}", record_trace=True).arrays()
            binary = (np.asarray(y) >= 5).astype(np.int64)
            LogisticRegression(max_iterations=3, chunk_size=128).fit(X, binary)
        trace = X.trace
        assert trace is not None
        assert len(trace) > 0
        # Chunked scans over the file are (piecewise) sequential.
        assert trace.sequential_fraction() > 0.8
        # Every L-BFGS evaluation scans the full data section once.
        data_bytes = X.nbytes
        assert trace.total_bytes % data_bytes == 0
        assert trace.total_bytes // data_bytes >= 4
