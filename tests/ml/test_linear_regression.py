"""Tests for linear regression."""

import numpy as np
import pytest

from repro.ml.linear_model.linear_regression import LinearRegression


def make_regression(n=200, d=6, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    intercept = 1.5
    y = X @ w + intercept + noise * rng.normal(size=n)
    return X, y, w, intercept


class TestNormalEquationSolver:
    def test_recovers_exact_weights_without_noise(self):
        X, y, w, intercept = make_regression()
        model = LinearRegression(solver="normal").fit(X, y)
        np.testing.assert_allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(intercept, abs=1e-8)

    def test_r2_close_to_one_with_small_noise(self):
        X, y, _, _ = make_regression(noise=0.05, seed=1)
        model = LinearRegression().fit(X, y)
        assert model.score(X, y) > 0.99

    def test_chunk_size_does_not_change_solution(self):
        X, y, _, _ = make_regression(seed=2)
        a = LinearRegression(chunk_size=7).fit(X, y)
        b = LinearRegression(chunk_size=1000).fit(X, y)
        np.testing.assert_allclose(a.coef_, b.coef_, atol=1e-10)

    def test_ridge_shrinks_weights(self):
        X, y, _, _ = make_regression(noise=0.5, seed=3)
        plain = LinearRegression().fit(X, y)
        ridge = LinearRegression(l2_penalty=5.0).fit(X, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(plain.coef_)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_blocked_gram_matches_the_augmented_normal_equations(self, fit_intercept):
        X, y, _, _ = make_regression(n=500, d=9, noise=0.3, seed=4)
        model = LinearRegression(l2_penalty=0.1, fit_intercept=fit_intercept, chunk_size=64)
        model.fit(X, y)
        aug = np.hstack([X, np.ones((X.shape[0], 1))]) if fit_intercept else X
        ridge = 0.1 * X.shape[0] * np.eye(aug.shape[1])
        if fit_intercept:
            ridge[-1, -1] = 0.0
        params = np.linalg.solve(aug.T @ aug + ridge, aug.T @ y)
        np.testing.assert_allclose(model.coef_, params[: X.shape[1]], rtol=1e-12)
        expected_intercept = params[-1] if fit_intercept else 0.0
        assert model.intercept_ == pytest.approx(expected_intercept, rel=1e-12)

    def test_no_intercept_mode(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0)


class TestLbfgsSolver:
    def test_matches_normal_equations(self):
        X, y, _, _ = make_regression(noise=0.1, seed=4)
        exact = LinearRegression(solver="normal").fit(X, y)
        iterative = LinearRegression(solver="lbfgs", max_iterations=200).fit(X, y)
        np.testing.assert_allclose(iterative.coef_, exact.coef_, atol=1e-3)


class TestValidation:
    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression(solver="qr")

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression(l2_penalty=-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((2, 2)))

    def test_r2_of_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 3.0)
        model = LinearRegression().fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)
