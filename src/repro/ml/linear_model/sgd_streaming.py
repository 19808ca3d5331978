"""Shared chunk-streaming SGD machinery for the linear models.

:class:`LogisticRegression` and :class:`SoftmaxRegression` train their
``solver="sgd"`` path through the exact same loop: per-chunk mini-batch
updates with an inverse-scaling learning rate ``η₀ / (1 + decay · t)``,
epoch-loss convergence checks at pass boundaries, and an
:class:`~repro.ml.optim.result.OptimizationResult` assembled from the
accumulated state.  This module holds that machinery once; the concrete
models only supply their class validation, label encoding, objective and
fitted-attribute publishing.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.ml.base import StreamingEstimator, as_labels, as_matrix, iter_row_chunks
from repro.ml.optim.result import OptimizationResult

#: Initial learning rate ``η₀`` of every SGD update.
SGD_LEARNING_RATE = 0.1
#: The learning rate at update ``t`` is ``η₀ / (1 + SGD_DECAY · t)``.
SGD_DECAY = 1e-3


class SGDStreamState:
    """Mutable per-training state of a streaming SGD run."""

    def __init__(self, classes: np.ndarray, n_features: int, n_params: int) -> None:
        self.classes = classes
        self.n_features = n_features
        self.params = np.zeros(n_params, dtype=np.float64)
        self.step = 0
        self.evaluations = 0
        self.epoch_loss = 0.0
        self.epoch_rows = 0
        self.previous_mean_loss = np.inf
        self.history: List[float] = []
        self.converged = False


def encode_labels(classes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of ``y`` within sorted ``classes``; reject unseen labels."""
    indexed = np.searchsorted(classes, y)
    clipped = np.minimum(indexed, classes.shape[0] - 1)
    valid = classes[clipped] == y
    if not np.all(valid):
        unseen = np.unique(np.asarray(y)[~valid])
        raise ValueError(f"chunk contains labels outside classes: {unseen}")
    return indexed


class LinearSGDStreamingMixin(StreamingEstimator):
    """``partial_fit`` for linear models whose SGD path streams chunks.

    Subclasses provide four hooks:

    * ``_check_stream_classes(classes)`` — validate the declared class set;
    * ``_stream_param_count(classes, n_features)`` — parameter vector size;
    * ``_stream_objective(X, encoded, classes)`` — a chunk-local objective
      implementing ``batch_value_and_gradient``;
    * ``_publish_streaming_params()`` — refresh ``coef_``/``intercept_``/
      ``classes_`` from ``self._streaming_state``.
    """

    @property
    def streaming_passes(self) -> int:
        """SGD epochs one full training run makes."""
        return self.max_iterations

    def partial_fit(self, X: Any, y: Any = None, classes: Any = None) -> "LinearSGDStreamingMixin":
        """Consume one chunk of rows with mini-batch SGD updates.

        Requires ``solver="sgd"``.  ``classes`` must list every label the
        stream will ever produce; it is mandatory on the first call unless
        the first chunk already contains all of them.  Labels outside the
        declared classes are rejected, never silently remapped.
        """
        if self.solver != "sgd":
            raise ValueError(
                "partial_fit requires solver='sgd'; L-BFGS needs full-dataset "
                "gradients and cannot train incrementally"
            )
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        self.check_resumable()
        state: Optional[SGDStreamState] = self._streaming_state
        if state is None:
            known = np.unique(np.asarray(classes)) if classes is not None else np.unique(y)
            self._check_stream_classes(known)
            state = self._streaming_state = SGDStreamState(
                known, X.shape[1], self._stream_param_count(known, X.shape[1])
            )
        elif X.shape[1] != state.n_features:
            raise ValueError(
                f"chunk has {X.shape[1]} features, expected {state.n_features}"
            )

        encoded = encode_labels(state.classes, y)
        objective = self._stream_objective(X, encoded, state.classes)
        params = state.params
        for start, stop in iter_row_chunks(X, self.chunk_size):
            loss, grad = objective.batch_value_and_gradient(params, start, stop)
            lr = SGD_LEARNING_RATE / (1.0 + SGD_DECAY * state.step)
            params = params - lr * grad
            state.step += 1
            state.evaluations += 1
            state.epoch_loss += loss
        state.epoch_rows += X.shape[0]
        state.params = params
        self._publish_streaming_params()
        return self

    def _end_streaming_pass(self, epoch: int) -> bool:
        state = self._streaming_state
        if state is None or state.epoch_rows == 0:
            return False
        mean_loss = state.epoch_loss / state.epoch_rows
        state.history.append(mean_loss)
        converged = state.previous_mean_loss - mean_loss < self.tolerance
        state.previous_mean_loss = mean_loss
        state.epoch_loss = 0.0
        state.epoch_rows = 0
        state.converged = converged
        return converged

    def finalize_streaming(self, X: Any) -> None:
        """Build ``result_`` from the accumulated streaming state.

        The reported value is the final epoch's mean loss (the streaming
        engine has no label handle for a full re-evaluation, and an extra
        full pass would defeat single-pass training).
        """
        state = self._streaming_state
        if state is None:
            return
        history = list(state.history)
        self.result_ = OptimizationResult(
            params=state.params.copy(),
            value=history[-1] if history else float("nan"),
            iterations=getattr(self, "_streaming_epochs_", len(history)),
            converged=state.converged,
            gradient_norm=float("nan"),
            history=history,
            function_evaluations=state.evaluations,
        )

    # -- subclass hooks ------------------------------------------------------

    def _check_stream_classes(self, classes: np.ndarray) -> None:
        raise NotImplementedError

    def _stream_param_count(self, classes: np.ndarray, n_features: int) -> int:
        raise NotImplementedError

    def _stream_objective(self, X: Any, encoded: np.ndarray, classes: np.ndarray) -> Any:
        raise NotImplementedError

    def _publish_streaming_params(self) -> None:
        raise NotImplementedError
