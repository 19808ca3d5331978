"""Binary logistic regression trained with L-BFGS (the paper's workload)."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    StreamingPredictor,
    as_labels,
    as_matrix,
    iter_row_chunks,
    rows_matmul,
    stack_row_chunks,
)
from repro.ml.linear_model.objectives import (
    DEFAULT_CHUNK_ROWS,
    LogisticRegressionObjective,
    sigmoid,
)
from repro.ml.linear_model.sgd_streaming import LinearSGDStreamingMixin
from repro.ml.optim.lbfgs import LBFGS


class LogisticRegression(
    BaseEstimator, ClassifierMixin, StreamingPredictor, LinearSGDStreamingMixin
):
    """Binary logistic regression.

    The defaults mirror the M3 experiments: L-BFGS with 10 iterations.  The
    estimator only reads its design matrix through contiguous row chunks, so
    an in-memory array and a memory-mapped matrix produce identical models.

    Parameters
    ----------
    max_iterations:
        Number of L-BFGS iterations (epochs for the SGD solver).
    l2_penalty:
        L2 regularisation strength (0 disables it).
    fit_intercept:
        Whether to learn a bias term.
    chunk_size:
        Rows per streaming chunk when scanning the design matrix.
    solver:
        ``"lbfgs"`` (default, matching the paper) or ``"sgd"`` (the online
        learning extension).
    tolerance:
        Gradient tolerance for L-BFGS / loss tolerance for SGD.
    seed:
        Random seed for the SGD solver's shuffling.

    Attributes
    ----------
    coef_:
        Learned feature weights, shape ``(n_features,)``.
    intercept_:
        Learned bias (0.0 when ``fit_intercept`` is false).
    classes_:
        The two class labels, in sorted order.
    result_:
        The full :class:`~repro.ml.optim.result.OptimizationResult`.
    """

    def __init__(
        self,
        max_iterations: int = 10,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        solver: str = "lbfgs",
        tolerance: float = 1e-6,
        seed: Optional[int] = None,
    ) -> None:
        if solver not in ("lbfgs", "sgd"):
            raise ValueError(f"solver must be 'lbfgs' or 'sgd', got {solver!r}")
        self.max_iterations = max_iterations
        self.l2_penalty = l2_penalty
        self.fit_intercept = fit_intercept
        self.chunk_size = chunk_size
        self.solver = solver
        self.tolerance = tolerance
        self.seed = seed

    # -- fitting -----------------------------------------------------------

    def fit(self, X: Any, y: Any) -> "LogisticRegression":
        """Fit the model to a design matrix ``X`` and 0/1 (or two-valued) labels ``y``."""
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        classes = np.unique(y)
        if classes.shape[0] != 2:
            raise ValueError(
                f"binary logistic regression requires exactly 2 classes, got {classes.shape[0]}"
            )

        if self.solver == "sgd":
            # In-core SGD training is the same streaming loop the out-of-core
            # engine drives: one partial_fit per contiguous row chunk.
            def make_stream():
                for start, stop in iter_row_chunks(X, self.chunk_size):
                    yield X[start:stop], y[start:stop]

            return self.fit_streaming(make_stream, classes=classes, finalize=X)

        binary = (y == classes[1]).astype(np.int64)
        objective = LogisticRegressionObjective(
            X,
            binary,
            l2_penalty=self.l2_penalty,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )
        optimizer = LBFGS(max_iterations=self.max_iterations, tolerance=self.tolerance)
        result = optimizer.minimize(objective)

        params = result.params
        self.classes_ = classes
        self.coef_ = params[: X.shape[1]].copy()
        self.intercept_ = float(params[X.shape[1]]) if self.fit_intercept else 0.0
        self.result_ = result
        return self

    # -- streaming (partial_fit) -------------------------------------------
    # The loop itself lives in LinearSGDStreamingMixin; these hooks supply
    # the binary-logistic specifics.

    def _check_stream_classes(self, classes: np.ndarray) -> None:
        if classes.shape[0] != 2:
            raise ValueError(
                f"binary logistic regression requires exactly 2 classes, got {classes.shape[0]}"
            )

    def _stream_param_count(self, classes: np.ndarray, n_features: int) -> int:
        return n_features + (1 if self.fit_intercept else 0)

    def _stream_objective(self, X: Any, encoded: np.ndarray, classes: np.ndarray) -> Any:
        # ``encoded`` indexes into the sorted class pair, so it is already
        # the 0/1 vector the binary objective expects.
        return LogisticRegressionObjective(
            X,
            encoded.astype(np.int64),
            l2_penalty=self.l2_penalty,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )

    def _publish_streaming_params(self) -> None:
        state = self._streaming_state
        self.classes_ = state.classes
        self.coef_ = state.params[: state.n_features].copy()
        self.intercept_ = float(state.params[state.n_features]) if self.fit_intercept else 0.0

    # -- inference -----------------------------------------------------------

    def _params(self) -> np.ndarray:
        self._check_fitted("coef_")
        if self.fit_intercept:
            return np.concatenate([self.coef_, [self.intercept_]])
        return self.coef_

    def decision_function(self, X: Any) -> np.ndarray:
        """Raw logits ``X @ coef_ + intercept_`` for every row."""
        self._check_fitted("coef_")
        return stack_row_chunks(
            as_matrix(X),
            self.chunk_size,
            lambda chunk: rows_matmul(chunk, self.coef_) + self.intercept_,
        )

    def predict_proba(self, X: Any) -> np.ndarray:
        """Probability of each class, shape ``(n_rows, 2)``."""
        positive = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X: Any) -> np.ndarray:
        """Predicted class label for every row."""
        self._check_fitted("classes_")
        positive = self.decision_function(X) >= 0.0
        return np.where(positive, self.classes_[1], self.classes_[0])

    def loss(self, X: Any, y: Any) -> float:
        """Mean negative log-likelihood of ``(X, y)`` under the fitted model."""
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        binary = (y == self.classes_[1]).astype(np.int64)
        objective = LogisticRegressionObjective(
            X,
            binary,
            l2_penalty=0.0,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )
        value, _ = objective.value_and_gradient(self._params())
        return float(value)
