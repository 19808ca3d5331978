"""Chunk-aware preprocessing transformers.

Feature scaling on an out-of-core dataset must itself be out-of-core: the
scalers below learn their statistics in a single streaming pass, and can
either transform into a new array (small data) or *in place* through a
writable memory map (large data), which is how a real M3 pipeline would
standardise a 190 GB file without materialising a second copy.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    TransformerMixin,
    as_matrix,
    iter_row_chunks,
    map_row_chunks,
    stack_row_chunks,
)


class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardise features to zero mean and unit variance.

    Statistics are accumulated with a numerically stable single pass
    (sum and sum of squares in float64).

    Attributes
    ----------
    mean_:
        Per-feature means.
    scale_:
        Per-feature standard deviations (features with zero variance get a
        scale of 1.0 so they pass through unchanged).
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True, chunk_size: int = 4096) -> None:
        self.with_mean = with_mean
        self.with_std = with_std
        self.chunk_size = chunk_size

    def fit(self, X: Any, y: Any = None) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        X = as_matrix(X)
        n_rows, n_features = X.shape
        if n_rows == 0:
            raise ValueError("cannot fit a scaler on an empty matrix")
        total = np.zeros(n_features, dtype=np.float64)
        sq_total = np.zeros(n_features, dtype=np.float64)

        def moments(_start: int, _stop: int, chunk: Any) -> Tuple[np.ndarray, np.ndarray]:
            chunk = np.asarray(chunk, dtype=np.float64)
            return chunk.sum(axis=0), (chunk ** 2).sum(axis=0)

        for _, _, (chunk_total, chunk_sq_total) in map_row_chunks(X, self.chunk_size, moments):
            total += chunk_total
            sq_total += chunk_sq_total
        mean = total / n_rows
        variance = np.clip(sq_total / n_rows - mean ** 2, 0.0, None)
        scale = np.sqrt(variance)
        scale[scale == 0.0] = 1.0
        self.mean_ = mean
        self.scale_ = scale
        return self

    def transform(self, X: Any) -> np.ndarray:
        """Return a standardised copy of ``X``."""
        self._check_fitted("mean_")
        X = as_matrix(X)
        return stack_row_chunks(X, self.chunk_size, self._standardise, X.shape[1:])

    def _standardise(self, chunk: np.ndarray) -> np.ndarray:
        if self.with_mean:
            chunk = chunk - self.mean_
        if self.with_std:
            chunk = chunk / self.scale_
        return chunk

    def transform_inplace(self, X: Any) -> Any:
        """Standardise a *writable* matrix (e.g. a read-write memory map) in place.

        A plain serial loop: each chunk is written back before the next is
        read, which a fan-out would reorder.
        """
        self._check_fitted("mean_")
        X = as_matrix(X)
        for start, stop in iter_row_chunks(X, self.chunk_size):
            X[start:stop] = self._standardise(np.asarray(X[start:stop], dtype=np.float64))
        return X

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        """Undo the standardisation."""
        self._check_fitted("mean_")
        X = np.asarray(X, dtype=np.float64)
        out = X
        if self.with_std:
            out = out * self.scale_
        if self.with_mean:
            out = out + self.mean_
        return out


class MinMaxScaler(BaseEstimator, TransformerMixin):
    """Scale features to a fixed range (default [0, 1]) in a streaming pass.

    Attributes
    ----------
    data_min_, data_max_:
        Per-feature minima and maxima seen during fitting.
    scale_, min_:
        The affine transform is ``X * scale_ + min_``.
    """

    def __init__(
        self,
        feature_range: "tuple[float, float]" = (0.0, 1.0),
        chunk_size: int = 4096,
    ) -> None:
        low, high = feature_range
        if high <= low:
            raise ValueError(f"feature_range must be increasing, got {feature_range}")
        self.feature_range = feature_range
        self.chunk_size = chunk_size

    def fit(self, X: Any, y: Any = None) -> "MinMaxScaler":
        """Learn per-feature minima and maxima."""
        X = as_matrix(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty matrix")
        data_min: Optional[np.ndarray] = None
        data_max: Optional[np.ndarray] = None

        def extrema(_start: int, _stop: int, chunk: Any) -> Tuple[np.ndarray, np.ndarray]:
            chunk = np.asarray(chunk, dtype=np.float64)
            return chunk.min(axis=0), chunk.max(axis=0)

        for _, _, (chunk_min, chunk_max) in map_row_chunks(X, self.chunk_size, extrema):
            data_min = chunk_min if data_min is None else np.minimum(data_min, chunk_min)
            data_max = chunk_max if data_max is None else np.maximum(data_max, chunk_max)
        assert data_min is not None and data_max is not None
        low, high = self.feature_range
        span = data_max - data_min
        with np.errstate(divide="ignore", over="ignore"):
            scale = (high - low) / span
        # A zero span (constant feature) or one so small the division
        # overflows cannot be rescaled meaningfully; pin such features to the
        # bottom of the feature range instead of producing inf/nan.
        degenerate = (span == 0.0) | ~np.isfinite(scale)
        scale[degenerate] = high - low
        self.data_min_ = data_min
        self.data_max_ = data_max
        self.scale_ = scale
        self.min_ = low - data_min * self.scale_
        return self

    def transform(self, X: Any) -> np.ndarray:
        """Return a scaled copy of ``X``."""
        self._check_fitted("scale_")
        X = as_matrix(X)
        return stack_row_chunks(
            X, self.chunk_size, lambda chunk: chunk * self.scale_ + self.min_, X.shape[1:]
        )

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        """Undo the scaling."""
        self._check_fitted("scale_")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.min_) / self.scale_
