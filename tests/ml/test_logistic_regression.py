"""Tests for binary logistic regression."""

import numpy as np
import pytest

from repro.api import Session
from repro.ml.linear_model.logistic_regression import LogisticRegression


class TestFitting:
    def test_learns_separable_problem(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=50).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_paper_configuration_10_iterations(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=10).fit(X, y)
        assert model.result_.iterations <= 10
        assert model.score(X, y) > 0.9

    def test_coefficient_shapes(self, small_classification):
        X, y = small_classification
        model = LogisticRegression().fit(X, y)
        assert model.coef_.shape == (X.shape[1],)
        assert isinstance(model.intercept_, float)
        assert model.classes_.shape == (2,)

    def test_no_intercept(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0

    def test_l2_penalty_shrinks_weights(self, small_classification):
        X, y = small_classification
        free = LogisticRegression(max_iterations=50).fit(X, y)
        penalised = LogisticRegression(max_iterations=50, l2_penalty=1.0).fit(X, y)
        assert np.linalg.norm(penalised.coef_) < np.linalg.norm(free.coef_)

    def test_non_binary_labels_rejected(self):
        X = np.zeros((6, 2))
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, np.array([0, 1, 2, 0, 1, 2]))

    def test_arbitrary_label_values(self, small_classification):
        X, y = small_classification
        relabelled = np.where(y == 1, 7, -3)
        model = LogisticRegression(max_iterations=30).fit(X, relabelled)
        assert set(np.unique(model.predict(X))) <= {-3, 7}

    def test_sgd_solver(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=20, solver="sgd", chunk_size=32).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression(solver="newton")


class TestInference:
    def test_predict_proba_in_unit_interval(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=20).fit(X, y)
        probabilities = model.predict_proba(X)
        assert probabilities.shape == (X.shape[0], 2)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_decision_function_sign_matches_prediction(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=20).fit(X, y)
        scores = model.decision_function(X)
        predictions = model.predict(X)
        assert np.all((scores >= 0) == (predictions == model.classes_[1]))

    def test_loss_decreases_after_training(self, small_classification):
        X, y = small_classification
        model = LogisticRegression(max_iterations=30).fit(X, y)
        assert model.loss(X, y) < np.log(2.0)

    def test_unfitted_predict_rejected(self, small_classification):
        X, _ = small_classification
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(X)

    @pytest.mark.parametrize("solver", ["lbfgs", "sgd"])
    @pytest.mark.parametrize("width", [3, 7, 9, 12])
    def test_rows_of_another_width_are_refused(self, solver, width):
        # Fitted on 8 features: narrower rows are not scored against the
        # leading weights (with a coefficient as the bias), wider ones do
        # not fail on an index — both are a shape ValueError.
        X = np.random.default_rng(3).normal(size=(64, 8))
        y = (X[:, 0] > 0).astype(np.int64)
        model = LogisticRegression(max_iterations=3, solver=solver).fit(X, y)
        for method in (model.decision_function, model.predict_proba, model.predict):
            with pytest.raises(ValueError):
                method(np.ones((2, width)))


class TestTransparency:
    """The M3 property: identical models from in-memory and memory-mapped data."""

    def test_memmap_training_identical_to_in_memory(self, mmap_dataset, small_classification):
        X, y = small_classification
        with Session() as session:
            mapped, labels = session.open(f"mmap://{mmap_dataset}").arrays()

            in_memory = LogisticRegression(max_iterations=10).fit(X, y)
            memory_mapped = LogisticRegression(max_iterations=10).fit(mapped, np.asarray(labels))

            np.testing.assert_array_equal(in_memory.coef_, memory_mapped.coef_)
            assert in_memory.intercept_ == memory_mapped.intercept_
            np.testing.assert_array_equal(in_memory.predict(X), memory_mapped.predict(mapped))

    def test_chunk_size_does_not_change_model(self, small_classification):
        X, y = small_classification
        coarse = LogisticRegression(max_iterations=10, chunk_size=10_000).fit(X, y)
        fine = LogisticRegression(max_iterations=10, chunk_size=19).fit(X, y)
        np.testing.assert_allclose(coarse.coef_, fine.coef_, atol=1e-10)
