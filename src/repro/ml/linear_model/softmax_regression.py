"""Multinomial (softmax) logistic regression.

Infimnist has ten digit classes; the paper's "logistic regression" on it is
therefore naturally multinomial.  We provide both: the binary estimator in
:mod:`~repro.ml.linear_model.logistic_regression` (matching the minimal
workload the paper times) and this full multiclass version used by the
examples and accuracy tests.
"""

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
    stack_row_chunks,
)
from repro.ml.linear_model.objectives import (
    DEFAULT_CHUNK_ROWS,
    SoftmaxRegressionObjective,
    softmax,
)
from repro.ml.linear_model.sgd_streaming import LinearSGDStreamingMixin
from repro.ml.optim.lbfgs import LBFGS


class SoftmaxRegression(
    BaseEstimator, ClassifierMixin, StreamingPredictor, LinearSGDStreamingMixin
):
    """Multinomial logistic regression trained with L-BFGS (or SGD).

    Attributes
    ----------
    coef_:
        Weight matrix of shape ``(n_features, n_classes)``.
    intercept_:
        Bias vector of shape ``(n_classes,)`` (zeros if no intercept).
    classes_:
        Sorted array of class labels.
    result_:
        The :class:`~repro.ml.optim.result.OptimizationResult` from training.
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

    def fit(self, X: Any, y: Any) -> "SoftmaxRegression":
        """Fit the model; labels may be any hashable values (they are re-indexed)."""
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        classes = np.unique(y)
        if classes.shape[0] < 2:
            raise ValueError("softmax regression requires at least 2 classes")

        if self.solver == "sgd":
            # One streaming code path for in-core and out-of-core training.
            def make_stream():
                for start, stop in iter_row_chunks(X, self.chunk_size):
                    yield X[start:stop], y[start:stop]

            return self.fit_streaming(make_stream, classes=classes, finalize=X)

        indexed = np.searchsorted(classes, y)
        objective = SoftmaxRegressionObjective(
            X,
            indexed,
            n_classes=classes.shape[0],
            l2_penalty=self.l2_penalty,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )
        optimizer = LBFGS(max_iterations=self.max_iterations, tolerance=self.tolerance)
        result = optimizer.minimize(objective)

        weight_dim = X.shape[1] + (1 if self.fit_intercept else 0)
        W = result.params.reshape(weight_dim, classes.shape[0])
        self.classes_ = classes
        self.coef_ = W[: X.shape[1], :].copy()
        self.intercept_ = (
            W[X.shape[1], :].copy() if self.fit_intercept else np.zeros(classes.shape[0])
        )
        self.result_ = result
        return self

    # -- streaming (partial_fit) -------------------------------------------
    # The loop itself lives in LinearSGDStreamingMixin; these hooks supply
    # the multinomial specifics.

    def _check_stream_classes(self, classes: np.ndarray) -> None:
        if classes.shape[0] < 2:
            raise ValueError("softmax regression requires at least 2 classes")

    def _stream_param_count(self, classes: np.ndarray, n_features: int) -> int:
        weight_dim = n_features + (1 if self.fit_intercept else 0)
        return weight_dim * classes.shape[0]

    def _stream_objective(self, X: Any, encoded: np.ndarray, classes: np.ndarray) -> Any:
        return SoftmaxRegressionObjective(
            X,
            encoded,
            n_classes=classes.shape[0],
            l2_penalty=self.l2_penalty,
            fit_intercept=self.fit_intercept,
            chunk_size=self.chunk_size,
        )

    def _publish_streaming_params(self) -> None:
        state = self._streaming_state
        weight_dim = state.n_features + (1 if self.fit_intercept else 0)
        W = state.params.reshape(weight_dim, state.classes.shape[0])
        self.classes_ = state.classes
        self.coef_ = W[: state.n_features, :].copy()
        self.intercept_ = (
            W[state.n_features, :].copy()
            if self.fit_intercept
            else np.zeros(state.classes.shape[0])
        )

    def decision_function(self, X: Any) -> np.ndarray:
        """Per-class logits, shape ``(n_rows, n_classes)``."""
        self._check_fitted("coef_")
        return stack_row_chunks(
            as_matrix(X),
            self.chunk_size,
            lambda chunk: chunk @ self.coef_ + self.intercept_,
            (self.classes_.shape[0],),
        )

    def predict_proba(self, X: Any) -> np.ndarray:
        """Class probabilities, shape ``(n_rows, n_classes)``."""
        return softmax(self.decision_function(X))

    def predict(self, X: Any) -> np.ndarray:
        """Predicted class label for every row."""
        indices = np.argmax(self.decision_function(X), axis=1)
        return self.classes_[indices]

    def loss(self, X: Any, y: Any) -> float:
        """Mean cross-entropy of ``(X, y)`` under the fitted model."""
        self._check_fitted("coef_")
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        index_of = {label: i for i, label in enumerate(self.classes_)}
        indexed = np.asarray([index_of[label] for label in y])
        probabilities = self.predict_proba(X)
        picked = probabilities[np.arange(len(indexed)), indexed]
        return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))
