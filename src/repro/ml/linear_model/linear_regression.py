"""Ordinary least squares / ridge regression.

Not part of the paper's timed workloads, but a natural member of the
"wide range of machine learning algorithms" the paper's ongoing work targets,
and a useful sanity check: with an exact normal-equation solver available, the
chunk-streaming gradient path can be validated against a closed form.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    StreamingPredictor,
    as_matrix,
    map_row_chunks,
    stack_row_chunks,
)
from repro.ml.linear_model.objectives import DEFAULT_CHUNK_ROWS, LinearRegressionObjective
from repro.ml.optim.lbfgs import LBFGS


class LinearRegression(BaseEstimator, StreamingPredictor):
    """Linear regression with an optional L2 (ridge) penalty.

    Two solvers are offered:

    * ``"normal"`` — accumulate ``XᵀX`` and ``Xᵀy`` in one streaming pass and
      solve the normal equations exactly.  This is itself a nice demonstration
      of out-of-core computation: the accumulators are tiny regardless of the
      number of rows.
    * ``"lbfgs"`` — minimise the MSE objective iteratively, exercising the
      same code path as logistic regression.

    Attributes
    ----------
    coef_:
        Feature weights, shape ``(n_features,)``.
    intercept_:
        Bias term (0.0 when ``fit_intercept`` is false).
    """

    def __init__(
        self,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        solver: str = "normal",
        max_iterations: int = 50,
        tolerance: float = 1e-8,
    ) -> None:
        if solver not in ("normal", "lbfgs"):
            raise ValueError(f"solver must be 'normal' or 'lbfgs', got {solver!r}")
        if l2_penalty < 0:
            raise ValueError(f"l2_penalty must be non-negative, got {l2_penalty}")
        self.l2_penalty = l2_penalty
        self.fit_intercept = fit_intercept
        self.chunk_size = chunk_size
        self.solver = solver
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def fit(self, X: Any, y: Any) -> "LinearRegression":
        """Fit to a design matrix ``X`` and real-valued targets ``y``."""
        X = as_matrix(X)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-D and match X's number of rows")
        if self.solver == "normal":
            self._fit_normal_equations(X, y)
        else:
            self._fit_lbfgs(X, y)
        return self

    def _fit_normal_equations(self, X: Any, y: np.ndarray) -> None:
        n_features = X.shape[1]
        dim = n_features + (1 if self.fit_intercept else 0)
        gram = np.zeros((dim, dim), dtype=np.float64)
        moment = np.zeros(dim, dtype=np.float64)

        def chunk_moments(
            start: int, stop: int, chunk: Any
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
            # The intercept's blocks of [X, 1]ᵀ[X, 1] are Xᵀ1 = X.sum(0) and 1ᵀ1 = rows,
            # so the chunk is read in place rather than copied next to a column of ones.
            chunk = np.asarray(chunk, dtype=np.float64)
            targets = y[start:stop]
            return chunk.T @ chunk, chunk.sum(axis=0), targets @ chunk, float(targets.sum())

        for _, _, (xtx, x_sum, xty, y_sum) in map_row_chunks(X, self.chunk_size, chunk_moments):
            gram[:n_features, :n_features] += xtx
            moment[:n_features] += xty
            if self.fit_intercept:
                gram[n_features, :n_features] += x_sum
                moment[n_features] += y_sum
        n_samples = X.shape[0]
        if self.fit_intercept:
            gram[:n_features, n_features] = gram[n_features, :n_features]
            gram[n_features, n_features] = n_samples
        if self.l2_penalty > 0:
            ridge = self.l2_penalty * n_samples * np.eye(dim)
            if self.fit_intercept:
                ridge[n_features, n_features] = 0.0
            gram = gram + ridge
        params = np.linalg.solve(gram, moment)
        self.coef_ = params[:n_features].copy()
        self.intercept_ = float(params[n_features]) if self.fit_intercept else 0.0

    def _fit_lbfgs(self, X: Any, y: np.ndarray) -> None:
        objective = LinearRegressionObjective(
            X,
            y,
            l2_penalty=self.l2_penalty,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )
        optimizer = LBFGS(max_iterations=self.max_iterations, tolerance=self.tolerance)
        result = optimizer.minimize(objective)
        self.coef_ = result.params[: X.shape[1]].copy()
        self.intercept_ = float(result.params[X.shape[1]]) if self.fit_intercept else 0.0
        self.result_ = result

    def predict(self, X: Any) -> np.ndarray:
        """Predicted targets for every row of ``X``."""
        self._check_fitted("coef_")
        return stack_row_chunks(
            as_matrix(X), self.chunk_size, lambda chunk: chunk @ self.coef_ + self.intercept_
        )

    def score(self, X: Any, y: Any) -> float:
        """Coefficient of determination R² of the predictions."""
        y = np.asarray(y, dtype=np.float64)
        predictions = self.predict(X)
        residual = float(np.sum((y - predictions) ** 2))
        total = float(np.sum((y - y.mean()) ** 2))
        if total == 0.0:
            # A constant target: perfect score if the residuals are (numerically) zero.
            return 1.0 if residual <= 1e-10 * max(1, y.size) else 0.0
        return 1.0 - residual / total
