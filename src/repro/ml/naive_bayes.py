"""Gaussian naive Bayes.

One of the extra algorithms for the paper's ongoing-work direction of applying
M3 to "a wide range of machine learning ... algorithms".  Training is a single
streaming pass that accumulates per-class counts, sums and sums of squares —
a textbook example of an algorithm whose out-of-core behaviour is ideal for
memory mapping (purely sequential, single pass).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    StreamingEstimator,
    StreamingPredictor,
    as_labels,
    as_matrix,
    iter_row_chunks,
    stack_row_chunks,
)


class _GaussianStats:
    """Per-class count/sum/sum-of-squares accumulators (order-independent)."""

    def __init__(self, classes: np.ndarray, n_features: int) -> None:
        self.classes = classes
        self.n_features = n_features
        self.counts = np.zeros(classes.shape[0], dtype=np.int64)
        self.sums = np.zeros((classes.shape[0], n_features), dtype=np.float64)
        self.sq_sums = np.zeros((classes.shape[0], n_features), dtype=np.float64)


class GaussianNaiveBayes(BaseEstimator, ClassifierMixin, StreamingEstimator, StreamingPredictor):
    """Naive Bayes with per-class Gaussian feature likelihoods.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to all variances for
        numerical stability (same semantics as scikit-learn).
    chunk_size:
        Rows per streaming chunk.

    Attributes
    ----------
    classes_:
        Sorted class labels.
    class_prior_:
        Empirical class priors.
    theta_:
        Per-class feature means, shape ``(n_classes, n_features)``.
    var_:
        Per-class feature variances, shape ``(n_classes, n_features)``.
    """

    def __init__(self, var_smoothing: float = 1e-9, chunk_size: int = 4096) -> None:
        if var_smoothing < 0:
            raise ValueError(f"var_smoothing must be non-negative, got {var_smoothing}")
        self.var_smoothing = var_smoothing
        self.chunk_size = chunk_size

    def fit(self, X: Any, y: Any) -> "GaussianNaiveBayes":
        """Fit class-conditional Gaussians in one streaming pass.

        This is the same loop the streaming engine drives — one
        ``partial_fit`` per contiguous row chunk; the accumulators are
        associative, so chunked and one-shot training are *exactly* equal.
        """
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        classes = np.unique(y)

        def make_stream():
            for start, stop in iter_row_chunks(X, self.chunk_size):
                yield X[start:stop], y[start:stop]

        return self.fit_streaming(make_stream, classes=classes, finalize=X)

    # -- streaming (partial_fit) -------------------------------------------

    def partial_fit(self, X: Any, y: Any = None, classes: Any = None) -> "GaussianNaiveBayes":
        """Fold one chunk of rows into the per-class accumulators.

        ``classes`` must list every label the stream will ever produce; it is
        mandatory on the first call unless the first chunk contains all of
        them.  Fitted attributes are refreshed after every chunk (once each
        declared class has been seen), so the model is usable mid-stream.
        """
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        self.check_resumable()
        state = self._streaming_state
        if state is None:
            known = np.unique(np.asarray(classes)) if classes is not None else np.unique(y)
            state = self._streaming_state = _GaussianStats(known, X.shape[1])
        elif X.shape[1] != state.n_features:
            raise ValueError(f"chunk has {X.shape[1]} features, expected {state.n_features}")

        chunk = np.asarray(X[0 : X.shape[0]], dtype=np.float64)
        for label in np.unique(y):
            index = int(np.searchsorted(state.classes, label))
            if index >= state.classes.shape[0] or state.classes[index] != label:
                raise ValueError(f"chunk contains label {label!r} outside classes")
            members = chunk[y == label]
            state.counts[index] += members.shape[0]
            state.sums[index] += members.sum(axis=0)
            state.sq_sums[index] += (members ** 2).sum(axis=0)

        if np.all(state.counts > 0):
            self._publish_streaming_params()
        return self

    def _publish_streaming_params(self) -> None:
        state = self._streaming_state
        counts = state.counts
        theta = state.sums / counts[:, None]
        var = state.sq_sums / counts[:, None] - theta ** 2
        var = np.clip(var, 0.0, None)
        epsilon = self.var_smoothing * float(var.max()) if var.max() > 0 else self.var_smoothing
        var = var + max(epsilon, 1e-12)

        self.classes_ = state.classes
        self.class_prior_ = counts / counts.sum()
        self.theta_ = theta
        self.var_ = var

    def finalize_streaming(self, X: Any) -> None:
        """Validate that every declared class was actually observed."""
        state = self._streaming_state
        if state is None or np.any(state.counts == 0):
            raise ValueError("every class must have at least one training example")

    def _joint_log_likelihood(self, X: Any) -> np.ndarray:
        self._check_fitted("theta_")
        X = as_matrix(X)
        n_classes = self.classes_.shape[0]
        log_prior = np.log(self.class_prior_)
        log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_), axis=1)

        def chunk_scores(chunk: np.ndarray) -> np.ndarray:
            scores = np.empty((chunk.shape[0], n_classes), dtype=np.float64)
            for index in range(n_classes):
                diff = chunk - self.theta_[index]
                quad = -0.5 * np.sum(diff ** 2 / self.var_[index], axis=1)
                scores[:, index] = log_prior[index] + log_norm[index] + quad
            return scores

        return stack_row_chunks(X, self.chunk_size, chunk_scores, (n_classes,))

    def predict_log_proba(self, X: Any) -> np.ndarray:
        """Log posterior class probabilities."""
        joint = self._joint_log_likelihood(X)
        normaliser = np.logaddexp.reduce(joint, axis=1, keepdims=True)
        return joint - normaliser

    def predict_proba(self, X: Any) -> np.ndarray:
        """Posterior class probabilities."""
        return np.exp(self.predict_log_proba(X))

    def predict(self, X: Any) -> np.ndarray:
        """Most probable class for every row of ``X``."""
        joint = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(joint, axis=1)]
