"""Tests for the chunk-streaming (partial_fit) training protocol.

Chunk-boundary correctness is the theme: streaming training must match
one-shot ``fit`` exactly when chunk bounds coincide with the model's own
batch bounds, stay within float tolerance otherwise, and handle the edge
chunks (last partial chunk, single chunk covering everything) without
special-casing.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs, make_classification
from repro.ml import (
    GaussianNaiveBayes,
    LogisticRegression,
    MiniBatchKMeans,
    SoftmaxRegression,
)


@pytest.fixture()
def binary_problem():
    return make_classification(n_samples=300, n_features=8, n_classes=2, class_sep=3.0, seed=3)


@pytest.fixture()
def multiclass_problem():
    return make_classification(n_samples=320, n_features=6, n_classes=3, class_sep=3.0, seed=4)


def _stream(X, y, chunk_rows):
    for start in range(0, X.shape[0], chunk_rows):
        yield X[start : start + chunk_rows], y[start : start + chunk_rows]


class TestLogisticRegressionPartialFit:
    def test_matching_chunks_equal_fit_exactly(self, binary_problem):
        X, y = binary_problem
        one_shot = LogisticRegression(max_iterations=4, solver="sgd", chunk_size=32).fit(X, y)
        streamed = LogisticRegression(max_iterations=4, solver="sgd", chunk_size=32)
        # Replay exactly the epochs fit performed (it may stop early on
        # convergence — partial_fit leaves that policy to the driver).
        for _ in range(one_shot.result_.iterations):
            for Xc, yc in _stream(X, y, 32):
                streamed.partial_fit(Xc, yc, classes=np.unique(y))
        np.testing.assert_array_equal(streamed.coef_, one_shot.coef_)
        assert streamed.intercept_ == one_shot.intercept_

    def test_single_chunk_larger_than_data(self, binary_problem):
        X, y = binary_problem
        one_shot = LogisticRegression(max_iterations=2, solver="sgd", chunk_size=10_000).fit(X, y)
        streamed = LogisticRegression(max_iterations=2, solver="sgd", chunk_size=10_000)
        for _ in range(one_shot.result_.iterations):
            streamed.partial_fit(X, y)  # classes inferred from the full chunk
        np.testing.assert_array_equal(streamed.coef_, one_shot.coef_)

    def test_different_chunking_stays_close(self, binary_problem):
        X, y = binary_problem
        reference = LogisticRegression(max_iterations=6, solver="sgd", chunk_size=32).fit(X, y)
        streamed = LogisticRegression(max_iterations=6, solver="sgd", chunk_size=32)
        for _ in range(6):
            for Xc, yc in _stream(X, y, 57):  # misaligned with batch size
                streamed.partial_fit(Xc, yc, classes=np.unique(y))
        # Different batch boundaries change the SGD trajectory slightly; both
        # must still land on essentially the same classifier.
        assert streamed.score(X, y) >= reference.score(X, y) - 0.05

    def test_updates_follow_the_inverse_scaling_schedule(self, binary_problem):
        # Step t moves by 0.1 / (1 + 1e-3 t) times the batch gradient, with t
        # counting updates across partial_fit calls.
        from repro.ml.linear_model.objectives import LogisticRegressionObjective

        X, y = binary_problem
        model = LogisticRegression(solver="sgd", chunk_size=32)
        model.partial_fit(X[:64], y[:64], classes=np.unique(y))
        model.partial_fit(X[64:128], y[64:128])
        params = np.zeros(X.shape[1] + 1)
        step = 0
        for lo in (0, 64):
            objective = LogisticRegressionObjective(X[lo : lo + 64], y[lo : lo + 64], chunk_size=32)
            for start in (0, 32):
                _, grad = objective.batch_value_and_gradient(params, start, start + 32)
                params = params - 0.1 / (1.0 + 1e-3 * step) * grad
                step += 1
        np.testing.assert_array_equal(model.coef_, params[:-1])
        assert model.intercept_ == params[-1]

    def test_model_usable_mid_stream(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(solver="sgd", chunk_size=64)
        model.partial_fit(X[:100], y[:100], classes=np.unique(y))
        assert model.predict(X).shape == (X.shape[0],)

    def test_lbfgs_solver_rejected(self, binary_problem):
        X, y = binary_problem
        with pytest.raises(ValueError, match="solver='sgd'"):
            LogisticRegression(solver="lbfgs").partial_fit(X[:10], y[:10])

    def test_feature_mismatch_rejected(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(solver="sgd")
        model.partial_fit(X[:50], y[:50], classes=np.unique(y))
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(X[:50, :4], y[:50])

    def test_more_than_two_classes_rejected(self):
        model = LogisticRegression(solver="sgd")
        with pytest.raises(ValueError, match="2 classes"):
            model.partial_fit(np.zeros((6, 2)), np.array([0, 1, 2, 0, 1, 2]))

    def test_unseen_label_rejected(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(solver="sgd")
        model.partial_fit(X[:50], y[:50], classes=np.unique(y))
        with pytest.raises(ValueError, match="outside classes"):
            model.partial_fit(X[:4], np.full(4, 5))


class TestSoftmaxRegressionPartialFit:
    def test_matching_chunks_equal_fit_exactly(self, multiclass_problem):
        X, y = multiclass_problem
        one_shot = SoftmaxRegression(max_iterations=3, solver="sgd", chunk_size=40).fit(X, y)
        streamed = SoftmaxRegression(max_iterations=3, solver="sgd", chunk_size=40)
        for _ in range(one_shot.result_.iterations):
            for Xc, yc in _stream(X, y, 40):
                streamed.partial_fit(Xc, yc, classes=np.unique(y))
        np.testing.assert_array_equal(streamed.coef_, one_shot.coef_)
        np.testing.assert_array_equal(streamed.intercept_, one_shot.intercept_)

    def test_unseen_label_rejected(self, multiclass_problem):
        X, y = multiclass_problem
        model = SoftmaxRegression(solver="sgd")
        model.partial_fit(X[:50], y[:50], classes=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="outside classes"):
            model.partial_fit(X[:5], np.full(5, 9))


class TestGaussianNaiveBayesPartialFit:
    def test_streaming_equals_fit_exactly_on_matching_chunks(self, multiclass_problem):
        X, y = multiclass_problem
        one_shot = GaussianNaiveBayes(chunk_size=64).fit(X, y)
        streamed = GaussianNaiveBayes(chunk_size=64)
        for Xc, yc in _stream(X, y, 64):
            streamed.partial_fit(Xc, yc, classes=np.unique(y))
        np.testing.assert_array_equal(streamed.theta_, one_shot.theta_)
        np.testing.assert_array_equal(streamed.var_, one_shot.var_)
        np.testing.assert_array_equal(streamed.class_prior_, one_shot.class_prior_)

    def test_chunk_boundaries_only_move_float_epsilon(self, multiclass_problem):
        X, y = multiclass_problem
        one_shot = GaussianNaiveBayes().fit(X, y)
        streamed = GaussianNaiveBayes()
        for Xc, yc in _stream(X, y, 77):  # straddles every internal boundary
            streamed.partial_fit(Xc, yc, classes=np.unique(y))
        np.testing.assert_allclose(streamed.theta_, one_shot.theta_, atol=1e-12)
        np.testing.assert_allclose(streamed.var_, one_shot.var_, atol=1e-12)

    def test_attributes_refresh_once_all_classes_seen(self, multiclass_problem):
        X, y = multiclass_problem
        model = GaussianNaiveBayes()
        only_zero = y == 0
        model.partial_fit(X[only_zero][:20], y[only_zero][:20], classes=np.unique(y))
        assert not hasattr(model, "theta_")  # classes 1 and 2 still unseen
        model.partial_fit(X, y)
        assert model.theta_.shape == (3, X.shape[1])

    def test_unseen_label_rejected(self, multiclass_problem):
        X, y = multiclass_problem
        model = GaussianNaiveBayes()
        model.partial_fit(X[:50], y[:50], classes=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="outside classes"):
            model.partial_fit(X[:5], np.full(5, 7))


class TestMiniBatchKMeansPartialFit:
    def test_streaming_deterministic_given_seed(self):
        X, _, _ = make_blobs(n_samples=400, n_features=5, centers=4, cluster_std=0.5, seed=2)
        runs = []
        for _ in range(2):
            model = MiniBatchKMeans(n_clusters=4, batch_size=64, seed=0)
            for start in range(0, 400, 64):
                model.partial_fit(X[start : start + 64])
            runs.append(model.cluster_centers_.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_streaming_recovers_blob_structure(self):
        X, _, centers = make_blobs(n_samples=400, n_features=5, centers=4, cluster_std=0.5, seed=2)
        model = MiniBatchKMeans(n_clusters=4, batch_size=64, seed=0)
        for _ in range(5):
            for start in range(0, 400, 64):
                model.partial_fit(X[start : start + 64])
        for center in centers:
            distances = np.linalg.norm(model.cluster_centers_ - center, axis=1)
            assert distances.min() < 1.5

    def test_first_chunk_must_cover_clusters(self):
        model = MiniBatchKMeans(n_clusters=8)
        with pytest.raises(ValueError, match="first chunk"):
            model.partial_fit(np.zeros((3, 2)))

    def test_fit_unchanged_by_refactor(self):
        # fit still initialises from the full matrix: deterministic and equal
        # across repeated runs with one seed.
        X, _, _ = make_blobs(n_samples=300, n_features=4, centers=3, cluster_std=0.4, seed=9)
        a = MiniBatchKMeans(n_clusters=3, max_epochs=3, seed=4).fit(X)
        b = MiniBatchKMeans(n_clusters=3, max_epochs=3, seed=4).fit(X)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)
        assert np.isfinite(a.inertia_)
