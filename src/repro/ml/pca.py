"""Principal component analysis via a streaming covariance accumulation.

Another algorithm for the paper's "wide range of machine learning" extension.
The covariance matrix ``XᵀX / n`` is accumulated chunk by chunk (one sequential
pass) and eigendecomposed in memory — valid whenever ``n_features²`` fits in
RAM, which holds for Infimnist's 784 features even at 190 GB of rows.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    TransformerMixin,
    as_matrix,
    map_row_chunks,
    stack_row_chunks,
)


class PCA(BaseEstimator, TransformerMixin):
    """Principal component analysis.

    Parameters
    ----------
    n_components:
        Number of components to keep; ``None`` keeps all.
    chunk_size:
        Rows per streaming chunk.

    Attributes
    ----------
    mean_:
        Per-feature mean of the training data.
    components_:
        Principal axes, shape ``(n_components, n_features)``, ordered by
        decreasing explained variance.
    explained_variance_:
        Variance explained by each component.
    explained_variance_ratio_:
        Fraction of total variance explained by each component.
    """

    def __init__(self, n_components: Optional[int] = None, chunk_size: int = 4096) -> None:
        if n_components is not None and n_components <= 0:
            raise ValueError(f"n_components must be positive, got {n_components}")
        self.n_components = n_components
        self.chunk_size = chunk_size

    def fit(self, X: Any, y: Any = None) -> "PCA":
        """Fit the principal axes with two streaming passes (mean, then covariance)."""
        X = as_matrix(X)
        n_rows, n_features = X.shape
        if n_rows < 2:
            raise ValueError("PCA needs at least 2 rows")

        # Pass 1: feature means.
        total = np.zeros(n_features, dtype=np.float64)
        for _, _, chunk_total in map_row_chunks(
            X,
            self.chunk_size,
            lambda _start, _stop, chunk: np.asarray(chunk, dtype=np.float64).sum(axis=0),
        ):
            total += chunk_total
        mean = total / n_rows

        # Pass 2: covariance of the centred data.
        def scatter(_start: int, _stop: int, chunk: Any) -> np.ndarray:
            centred = np.asarray(chunk, dtype=np.float64) - mean
            return centred.T @ centred

        cov = np.zeros((n_features, n_features), dtype=np.float64)
        for _, _, chunk_scatter in map_row_chunks(X, self.chunk_size, scatter):
            cov += chunk_scatter
        cov /= n_rows - 1

        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.clip(eigenvalues[order], 0.0, None)
        eigenvectors = eigenvectors[:, order]

        k = self.n_components or n_features
        k = min(k, n_features)
        total_variance = float(eigenvalues.sum())

        self.mean_ = mean
        self.components_ = eigenvectors[:, :k].T.copy()
        self.explained_variance_ = eigenvalues[:k].copy()
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total_variance
            if total_variance > 0
            else np.zeros(k)
        )
        return self

    def transform(self, X: Any) -> np.ndarray:
        """Project rows of ``X`` onto the principal axes."""
        self._check_fitted("components_")
        return stack_row_chunks(
            as_matrix(X),
            self.chunk_size,
            lambda chunk: (chunk - self.mean_) @ self.components_.T,
            (self.components_.shape[0],),
        )

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Map projected points back to the original feature space."""
        self._check_fitted("components_")
        Z = np.asarray(Z, dtype=np.float64)
        return Z @ self.components_ + self.mean_
