"""Integration tests for the unified Session/Dataset API.

The acceptance criterion of the API redesign: ``Session.fit`` runs the same
``LogisticRegression`` workload *unchanged* on all three storage backends
(``memory``, ``mmap``, ``sharded``), with and without an access trace
recording, and the Table 1 transparency property — identical coefficients
regardless of where the bytes live — carries through the new API.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.ml import GaussianNaiveBayes, KMeans, LogisticRegression

BACKENDS = ["memory", "mmap", "shard"]
#: Local fits on an untraced handle and on one recording its access trace.
RECORD_TRACE = [False, True]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 12))
    true_coef = rng.normal(size=12)
    y = (X @ true_coef + 0.2 * rng.normal(size=300) > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module")
def session(tmp_path_factory, problem):
    X, y = problem
    tmp_path = tmp_path_factory.mktemp("session_api")
    with Session() as session:
        session.create("memory://train", X, y)
        session.create(f"mmap://{tmp_path}/train.m3", X, y)
        session.create(f"shard://{tmp_path}/train_shards", X, y, shard_rows=77)
        session.specs = {
            "memory": "memory://train",
            "mmap": f"mmap://{tmp_path}/train.m3",
            "shard": f"shard://{tmp_path}/train_shards",
        }
        yield session


class TestSameWorkloadEverywhere:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("record_trace", RECORD_TRACE)
    def test_logistic_regression_runs_unchanged(self, session, problem, backend, record_trace):
        X, y = problem
        dataset = session.open(session.specs[backend], record_trace=record_trace)
        result = session.fit(LogisticRegression(max_iterations=10), dataset, engine="local")
        assert result.model.score(dataset.matrix, y) > 0.9
        assert (result.trace is not None) == record_trace

    def test_coefficients_identical_across_backends_and_traces(self, session):
        coefs = {}
        for backend in BACKENDS:
            for record_trace in RECORD_TRACE:
                dataset = session.open(session.specs[backend], record_trace=record_trace)
                result = session.fit(
                    LogisticRegression(max_iterations=10), dataset, engine="local"
                )
                coefs[(backend, record_trace)] = np.concatenate(
                    [result.model.coef_, [result.model.intercept_]]
                )
        reference = coefs[("memory", False)]
        for key, coef in coefs.items():
            np.testing.assert_array_equal(
                coef, reference, err_msg=f"{key} diverged from memory, untraced"
            )

    def test_kmeans_identical_across_backends(self, session):
        centers = {}
        for backend in BACKENDS:
            dataset = session.open(session.specs[backend])
            result = session.fit(KMeans(n_clusters=4, max_iterations=8, seed=0), dataset)
            centers[backend] = result.model.cluster_centers_
        np.testing.assert_array_equal(centers["memory"], centers["mmap"])
        np.testing.assert_array_equal(centers["memory"], centers["shard"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streaming_fit_matches_local(self, session, problem, backend):
        X, y = problem
        dataset = session.open(session.specs[backend])
        local = session.fit(GaussianNaiveBayes(chunk_size=64), dataset)
        streamed = session.fit(GaussianNaiveBayes(chunk_size=64), dataset, engine="streaming")
        assert streamed.engine == "streaming"
        np.testing.assert_allclose(streamed.model.theta_, local.model.theta_, rtol=1e-12)
        np.testing.assert_allclose(streamed.model.var_, local.model.var_, rtol=1e-9)
        np.testing.assert_array_equal(streamed.model.class_prior_, local.model.class_prior_)
        assert streamed.model.score(X, y) > 0.7


class TestArraysEquivalence:
    def test_arrays_fit_matches_session_fit(self, session, problem):
        """Table 1's line — ``fit(*ds.arrays())`` by hand — and ``session.fit``
        train identical models."""
        spec = session.specs["mmap"]
        X_mapped, y_mapped = session.open(spec).arrays()
        by_hand = LogisticRegression(max_iterations=10).fit(X_mapped, np.asarray(y_mapped))
        result = session.fit(
            LogisticRegression(max_iterations=10), session.open(spec)
        )
        np.testing.assert_array_equal(by_hand.coef_, result.model.coef_)
