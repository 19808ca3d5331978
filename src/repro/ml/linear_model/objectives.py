"""Streaming (chunk-wise) objectives for the linear models.

Each objective scans the design matrix in contiguous row chunks and
accumulates loss and gradient, so peak memory is ``O(chunk_size × n_features)``
regardless of how large the (possibly memory-mapped) dataset is.  This is the
piece of code whose access pattern the virtual-memory simulator replays to
obtain paper-scale runtimes: one ``value_and_gradient`` call is one sequential
pass over the file.

``batch_value_and_gradient`` evaluates one row range, the mini-batch the
``solver="sgd"`` path (:mod:`repro.ml.linear_model.sgd_streaming`) updates on.

The chunk kernel reads the chunk in place: no column of ones is appended.
Parameters are stored feature rows first, intercept last, so the logits are
the feature rows' product plus the intercept broadcast, and the gradient's
intercept entry is the residuals' column sum.  Softmax works class-major: its
logits are ``W[:d]ᵀ · chunkᵀ`` (``n_classes × rows``), so the residual matrix
is already ``Pᵀ`` and the feature rows of the gradient are ``(Pᵀ · chunk)ᵀ``.
Measured on one 4096 × 784 float64 chunk, 10 classes, one BLAS thread: a
softmax chunk took 25–27 ms as a copy into a 785-column ``[chunk, 1]``
followed by ``aug · W`` and ``augᵀ · P``; in place it takes 10–12 ms
(1024 rows: 4.2–5.4 → 2.3–2.5 ms).  ``chunkᵀ · P`` alone costs 12–14 ms
where ``Pᵀ · chunk`` costs 4.4–5.3 ms, and the row-major logits
``chunk · W[:d]`` cost 8–10 ms where the class-major ones cost 5.5–5.8 ms.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.ml.base import as_labels, as_matrix, map_row_chunks
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

    def _linear(self, params: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        """``chunk · w`` plus the intercept, for a parameter vector."""
        out = chunk @ params[: self.n_features]
        if self.fit_intercept:
            out += params[self.n_features]
        return out

    def _vector_gradient(self, residuals: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        """Gradient of a vector model: ``r · chunk``, then ``Σ r`` for the intercept."""
        grad = np.empty(self._weight_dim)
        grad[: self.n_features] = residuals @ chunk
        if self.fit_intercept:
            grad[self.n_features] = residuals.sum()
        return grad

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
        chunk = np.asarray(chunk, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        logits = self._linear(params, chunk)
        # loss = -[y log p + (1-y) log(1-p)], summed over the batch
        loss = -float(np.sum(targets * log_sigmoid(logits) + (1 - targets) * log_sigmoid(-logits)))
        return loss, self._vector_gradient(sigmoid(logits) - targets, chunk)


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
        d = self.n_features
        chunk = np.asarray(chunk, dtype=np.float64)
        targets = np.asarray(targets)
        rows = np.arange(len(targets))
        # Class-major (n_classes × rows): the residuals come out as Pᵀ.
        logits = np.ascontiguousarray(W[:d].T) @ chunk.T
        if self.fit_intercept:
            logits += W[d][:, None]
        log_probs = logits - logits.max(axis=0)
        log_probs -= np.log(np.exp(log_probs).sum(axis=0))
        loss = -float(np.sum(log_probs[targets, rows]))
        residuals = np.exp(log_probs)
        residuals[targets, rows] -= 1.0
        grad = np.empty_like(W)
        grad[:d] = (residuals @ chunk).T
        if self.fit_intercept:
            grad[d] = residuals.sum(axis=1)
        return loss, grad.reshape(-1)


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
        chunk = np.asarray(chunk, dtype=np.float64)
        residuals = self._linear(params, chunk) - targets
        loss = 0.5 * float(residuals @ residuals)
        return loss, self._vector_gradient(residuals, chunk)
