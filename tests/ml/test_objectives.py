"""Tests for the optimiser objectives (generic and streaming)."""

import tracemalloc

import numpy as np
import pytest

from repro.ml.linear_model.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
    SoftmaxRegressionObjective,
    log_sigmoid,
    sigmoid,
    softmax,
)
from repro.ml.optim.objective import FunctionObjective, QuadraticObjective, RosenbrockObjective


def numerical_gradient(objective, params, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        plus = params.copy()
        minus = params.copy()
        plus[i] += eps
        minus[i] -= eps
        grad[i] = (objective.value(plus) - objective.value(minus)) / (2 * eps)
    return grad


class TestNumericalHelpers:
    def test_sigmoid_stable_for_large_inputs(self):
        values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0)

    def test_log_sigmoid_stable(self):
        assert np.isfinite(log_sigmoid(np.array([-1000.0, 1000.0]))).all()

    def test_softmax_rows_sum_to_one(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
        np.testing.assert_allclose(probabilities.sum(axis=1), [1.0, 1.0])


class TestQuadraticObjective:
    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + 4 * np.eye(4)
        b = rng.normal(size=4)
        objective = QuadraticObjective(A, b)
        x = rng.normal(size=4)
        _, grad = objective.value_and_gradient(x)
        np.testing.assert_allclose(grad, numerical_gradient(objective, x), atol=1e-5)

    def test_minimizer_solves_system(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([2.0, 8.0])
        np.testing.assert_allclose(QuadraticObjective(A, b).minimizer(), [1.0, 2.0])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


class TestRosenbrock:
    def test_minimum_at_ones(self):
        objective = RosenbrockObjective(dim=3)
        value, grad = objective.value_and_gradient(np.ones(3))
        assert value == pytest.approx(0.0)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-12)

    def test_gradient_matches_numerical(self):
        objective = RosenbrockObjective(dim=4)
        x = np.array([-1.0, 0.5, 2.0, -0.3])
        np.testing.assert_allclose(
            objective.gradient(x), numerical_gradient(objective, x), rtol=1e-4, atol=1e-4
        )


class TestFunctionObjective:
    def test_wraps_callables(self):
        objective = FunctionObjective(lambda x: float(x @ x), lambda x: 2 * x, dim=3)
        value, grad = objective.value_and_gradient(np.array([1.0, 2.0, 3.0]))
        assert value == pytest.approx(14.0)
        np.testing.assert_allclose(grad, [2.0, 4.0, 6.0])
        assert objective.num_parameters == 3


class TestLogisticObjective:
    def test_gradient_matches_numerical(self, small_classification):
        X, y = small_classification
        objective = LogisticRegressionObjective(X, y, l2_penalty=0.1, chunk_size=37)
        params = np.random.default_rng(0).normal(scale=0.1, size=objective.num_parameters)
        _, grad = objective.value_and_gradient(params)
        np.testing.assert_allclose(grad, numerical_gradient(objective, params), atol=1e-5)

    def test_chunk_size_does_not_change_result(self, small_classification):
        X, y = small_classification
        params = np.random.default_rng(1).normal(size=X.shape[1] + 1)
        small_chunks = LogisticRegressionObjective(X, y, chunk_size=17)
        one_chunk = LogisticRegressionObjective(X, y, chunk_size=10_000)
        v1, g1 = small_chunks.value_and_gradient(params)
        v2, g2 = one_chunk.value_and_gradient(params)
        assert v1 == pytest.approx(v2)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_zero_params_loss_is_log2(self, small_classification):
        X, y = small_classification
        objective = LogisticRegressionObjective(X, y)
        value, _ = objective.value_and_gradient(np.zeros(objective.num_parameters))
        assert value == pytest.approx(np.log(2.0))

    def test_rejects_non_binary_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            LogisticRegressionObjective(X, np.array([0, 1, 2, 1]))

    def test_intercept_not_penalised(self, small_classification):
        X, y = small_classification
        objective = LogisticRegressionObjective(X, y, l2_penalty=10.0)
        params = np.zeros(objective.num_parameters)
        params[-1] = 5.0  # intercept only
        value_with_intercept, _ = objective.value_and_gradient(params)
        # Penalty contribution must be zero: compare against unpenalised objective.
        unpenalised = LogisticRegressionObjective(X, y, l2_penalty=0.0)
        value_unpenalised, _ = unpenalised.value_and_gradient(params)
        assert value_with_intercept == pytest.approx(value_unpenalised)


class TestSoftmaxObjective:
    def test_gradient_matches_numerical(self, small_multiclass):
        X, y = small_multiclass
        objective = SoftmaxRegressionObjective(X, y, chunk_size=53, l2_penalty=0.05)
        params = np.random.default_rng(2).normal(scale=0.05, size=objective.num_parameters)
        _, grad = objective.value_and_gradient(params)
        np.testing.assert_allclose(grad, numerical_gradient(objective, params), atol=1e-5)

    def test_zero_params_loss_is_log_k(self, small_multiclass):
        X, y = small_multiclass
        k = len(np.unique(y))
        objective = SoftmaxRegressionObjective(X, y, n_classes=k)
        value, _ = objective.value_and_gradient(np.zeros(objective.num_parameters))
        assert value == pytest.approx(np.log(k))

    def test_invalid_labels_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            SoftmaxRegressionObjective(X, np.array([0, 1, 5]), n_classes=3)

    def test_needs_two_classes(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            SoftmaxRegressionObjective(X, np.array([0, 0, 0]), n_classes=1)


class TestLinearObjective:
    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        y = X @ rng.normal(size=5) + 0.1 * rng.normal(size=60)
        objective = LinearRegressionObjective(X, y, l2_penalty=0.2, chunk_size=13)
        params = rng.normal(size=objective.num_parameters)
        _, grad = objective.value_and_gradient(params)
        np.testing.assert_allclose(grad, numerical_gradient(objective, params), atol=1e-5)

    def test_perfect_fit_has_zero_loss(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = np.array([2.0, -1.0])
        y = X @ w
        objective = LinearRegressionObjective(X, y, fit_intercept=False)
        value, grad = objective.value_and_gradient(w)
        assert value == pytest.approx(0.0)
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearRegressionObjective(np.zeros((3, 2)), np.zeros(4))


# -- the chunk kernel, pinned against the augmented form it replaced -----------


def augmented(chunk, fit_intercept):
    """``[chunk, 1]``: the design matrix the intercept is one more column of."""
    if not fit_intercept:
        return chunk
    return np.hstack([chunk, np.ones((chunk.shape[0], 1))])


def reference_logistic(chunk, targets, params, fit_intercept):
    aug = augmented(chunk, fit_intercept)
    logits = aug @ params
    loss = -np.sum(targets * log_sigmoid(logits) + (1 - targets) * log_sigmoid(-logits))
    return loss, aug.T @ (sigmoid(logits) - targets)


def reference_softmax(chunk, targets, params, fit_intercept):
    aug = augmented(chunk, fit_intercept)
    W = params.reshape(aug.shape[1], -1)
    probabilities = softmax(aug @ W)
    rows = np.arange(len(targets))
    loss = -np.sum(np.log(probabilities[rows, targets]))
    probabilities[rows, targets] -= 1.0
    return loss, (aug.T @ probabilities).reshape(-1)


def reference_linear(chunk, targets, params, fit_intercept):
    aug = augmented(chunk, fit_intercept)
    residuals = aug @ params - targets
    return 0.5 * residuals @ residuals, aug.T @ residuals


def kernel_case(kind, fit_intercept, rows=300, cols=20, seed=4):
    """An objective over a fresh chunk, the parameters to evaluate it at, and its reference."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, cols))
    if kind == "logistic":
        objective = LogisticRegressionObjective(
            X, rng.integers(0, 2, rows), fit_intercept=fit_intercept)
        reference = reference_logistic
    elif kind == "softmax":
        objective = SoftmaxRegressionObjective(
            X, rng.integers(0, 5, rows), n_classes=5, fit_intercept=fit_intercept)
        reference = reference_softmax
    else:
        objective = LinearRegressionObjective(
            X, rng.normal(size=rows), fit_intercept=fit_intercept)
        reference = reference_linear
    params = rng.normal(scale=0.3, size=objective.num_parameters)
    return objective, params, reference


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("kind", ["logistic", "softmax", "linear"])
class TestChunkKernel:
    def test_matches_the_augmented_reference(self, kind, fit_intercept):
        objective, params, reference = kernel_case(kind, fit_intercept)
        targets = np.asarray(objective.y)
        loss, grad = objective._chunk_value_and_gradient(params, objective.X, targets)
        expected_loss, expected_grad = reference(objective.X, targets, params, fit_intercept)
        assert grad.shape == expected_grad.shape == (objective.num_parameters,)
        np.testing.assert_allclose(loss, expected_loss, rtol=1e-12)
        # Every entry, the intercept row (the last one, or the last n_classes) included.
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-12)

    def test_reads_the_chunk_in_place(self, kind, fit_intercept):
        # A paper-shaped chunk (4096 × 784 float64, 25.7 MB): any copy of it, such as
        # one next to a column of ones, would show in the peak.
        objective, params, _ = kernel_case(kind, fit_intercept, rows=4096, cols=784)
        targets = np.asarray(objective.y)
        objective._chunk_value_and_gradient(params, objective.X, targets)  # warm BLAS up
        tracemalloc.start()
        try:
            objective._chunk_value_and_gradient(params, objective.X, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < objective.X.nbytes / 10
