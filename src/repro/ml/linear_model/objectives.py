"""Streaming (chunk-wise) objectives for the linear models.

Each objective scans the design matrix in contiguous row chunks and
accumulates loss and gradient, so peak memory is ``O(chunk_size × n_features)``
regardless of how large the (possibly memory-mapped) dataset is.  This is the
piece of code whose access pattern the virtual-memory simulator replays to
obtain paper-scale runtimes: one ``value_and_gradient`` call is one sequential
pass over the file.

``batch_value_and_gradient`` evaluates one row range, the mini-batch the
``solver="sgd"`` path (:mod:`repro.ml.linear_model.sgd_streaming`) updates on.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.ml.base import as_labels, as_matrix, map_row_chunks, stack_row_chunks
from repro.ml.optim.objective import DifferentiableObjective

DEFAULT_CHUNK_ROWS = 4096
"""Default number of rows per streaming chunk."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(sigmoid(z))``."""
    return -np.logaddexp(0.0, -z)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _ChunkedObjective(DifferentiableObjective):
    """Shared plumbing: chunk iteration, intercept handling, L2 penalty."""

    def __init__(
        self,
        X: Any,
        y: np.ndarray,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        self.X = as_matrix(X)
        self.y = as_labels(y, self.X.shape[0]) if y is not None else None
        if l2_penalty < 0:
            raise ValueError(f"l2_penalty must be non-negative, got {l2_penalty}")
        self.l2_penalty = l2_penalty
        self.fit_intercept = fit_intercept
        self.chunk_size = chunk_size
        self.n_samples = int(self.X.shape[0])
        self.n_features = int(self.X.shape[1])

    def _chunk_value_and_gradient(
        self, params: np.ndarray, chunk: Any, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Summed (not averaged, unpenalised) loss and gradient of one row chunk."""
        raise NotImplementedError

    def batch_value_and_gradient(
        self, params: np.ndarray, start: int, stop: int
    ) -> Tuple[float, np.ndarray]:
        return self._chunk_value_and_gradient(params, self.X[start:stop], self.y[start:stop])

    def value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        """One sequential pass over ``X``: chunks computed in parallel, summed in order."""
        params = np.asarray(params, dtype=np.float64)
        total_loss = 0.0
        total_grad = np.zeros(self.num_parameters)
        for _, _, (loss, grad) in map_row_chunks(
            self.X,
            self.chunk_size,
            lambda start, stop, chunk: self._chunk_value_and_gradient(
                params, chunk, self.y[start:stop]
            ),
        ):
            total_loss += loss
            total_grad += grad
        penalty, penalty_grad = self._penalty_and_grad(params)
        return total_loss / self.n_samples + penalty, total_grad / self.n_samples + penalty_grad

    def _augment(self, chunk: np.ndarray) -> np.ndarray:
        """Append a column of ones when fitting an intercept."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if not self.fit_intercept:
            return chunk
        ones = np.ones((chunk.shape[0], 1), dtype=np.float64)
        return np.hstack([chunk, ones])

    @property
    def _weight_dim(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    def _penalty_and_grad(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        """L2 penalty and its gradient; the intercept is never penalised."""
        if self.l2_penalty == 0.0:
            return 0.0, np.zeros_like(params)
        weights = params.copy()
        if self.fit_intercept:
            if weights.ndim == 1:
                weights[self.n_features] = 0.0
            else:
                weights[self.n_features, :] = 0.0
        penalty = 0.5 * self.l2_penalty * float(np.sum(weights ** 2))
        return penalty, self.l2_penalty * weights


class LogisticRegressionObjective(_ChunkedObjective):
    """Negative mean log-likelihood of binary logistic regression.

    Parameters are a single vector of length ``n_features (+1)``; labels must
    be 0/1.
    """

    def __init__(
        self,
        X: Any,
        y: np.ndarray,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        super().__init__(X, y, l2_penalty, fit_intercept, chunk_size)
        labels = np.unique(np.asarray(self.y))
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError(f"binary logistic regression needs 0/1 labels, got {labels}")

    @property
    def num_parameters(self) -> int:
        return self._weight_dim

    def _chunk_value_and_gradient(
        self, params: np.ndarray, chunk: Any, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        chunk = self._augment(chunk)
        targets = np.asarray(targets, dtype=np.float64)
        logits = chunk @ params
        probabilities = sigmoid(logits)
        # loss = -[y log p + (1-y) log(1-p)], summed over the batch
        loss = -float(np.sum(targets * log_sigmoid(logits) + (1 - targets) * log_sigmoid(-logits)))
        grad = chunk.T @ (probabilities - targets)
        return loss, grad

    def predict_proba(self, params: np.ndarray, X: Any) -> np.ndarray:
        """Probability of class 1 for every row of ``X``."""
        return stack_row_chunks(
            as_matrix(X), self.chunk_size, lambda chunk: sigmoid(self._augment(chunk) @ params)
        )


class SoftmaxRegressionObjective(_ChunkedObjective):
    """Negative mean log-likelihood of multinomial (softmax) regression.

    Parameters are a flattened ``(n_features (+1)) × n_classes`` matrix.
    """

    def __init__(
        self,
        X: Any,
        y: np.ndarray,
        n_classes: Optional[int] = None,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        super().__init__(X, y, l2_penalty, fit_intercept, chunk_size)
        y_arr = np.asarray(self.y)
        inferred = int(y_arr.max()) + 1 if y_arr.size else 0
        self.n_classes = int(n_classes) if n_classes is not None else inferred
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if y_arr.size and (y_arr.min() < 0 or y_arr.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def num_parameters(self) -> int:
        return self._weight_dim * self.n_classes

    def _as_matrix_params(self, params: np.ndarray) -> np.ndarray:
        return np.asarray(params, dtype=np.float64).reshape(self._weight_dim, self.n_classes)

    def _penalty_and_grad(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        penalty, grad = super()._penalty_and_grad(self._as_matrix_params(params))
        return penalty, grad.reshape(-1)

    def _chunk_value_and_gradient(
        self, params: np.ndarray, chunk: Any, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        W = self._as_matrix_params(params)
        chunk = self._augment(chunk)
        targets = np.asarray(targets)
        logits = chunk @ W
        log_probs = logits - logits.max(axis=1, keepdims=True)
        log_probs = log_probs - np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        loss = -float(np.sum(log_probs[np.arange(len(targets)), targets]))
        probabilities = np.exp(log_probs)
        probabilities[np.arange(len(targets)), targets] -= 1.0
        grad = chunk.T @ probabilities
        return loss, grad.reshape(-1)

    def predict_proba(self, params: np.ndarray, X: Any) -> np.ndarray:
        """Class probabilities (n_rows × n_classes) for every row of ``X``."""
        W = self._as_matrix_params(params)
        return stack_row_chunks(
            as_matrix(X),
            self.chunk_size,
            lambda chunk: softmax(self._augment(chunk) @ W),
            (self.n_classes,),
        )


class LinearRegressionObjective(_ChunkedObjective):
    """Mean squared error of ordinary least squares (optionally ridge)."""

    def __init__(
        self,
        X: Any,
        y: np.ndarray,
        l2_penalty: float = 0.0,
        fit_intercept: bool = True,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        self.X = as_matrix(X)
        targets = np.asarray(y, dtype=np.float64)
        if targets.ndim != 1 or targets.shape[0] != self.X.shape[0]:
            raise ValueError("y must be a 1-D vector matching X's row count")
        if l2_penalty < 0:
            raise ValueError(f"l2_penalty must be non-negative, got {l2_penalty}")
        self.y = targets
        self.l2_penalty = l2_penalty
        self.fit_intercept = fit_intercept
        self.chunk_size = chunk_size
        self.n_samples = int(self.X.shape[0])
        self.n_features = int(self.X.shape[1])

    @property
    def num_parameters(self) -> int:
        return self._weight_dim

    def _chunk_value_and_gradient(
        self, params: np.ndarray, chunk: Any, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        chunk = self._augment(chunk)
        residuals = chunk @ params - targets
        loss = 0.5 * float(residuals @ residuals)
        grad = chunk.T @ residuals
        return loss, grad

    def predict(self, params: np.ndarray, X: Any) -> np.ndarray:
        """Predicted targets for every row of ``X``."""
        return stack_row_chunks(
            as_matrix(X), self.chunk_size, lambda chunk: self._augment(chunk) @ params
        )
