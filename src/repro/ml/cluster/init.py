"""Centroid initialisation strategies for k-means.

Both strategies stream over the data in chunks, so they work unchanged on
memory-mapped matrices of any size.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import as_matrix, stack_row_chunks


def random_init(
    X: Any,
    n_clusters: int,
    rng: np.random.Generator,
    chunk_size: int = 4096,
) -> np.ndarray:
    """Pick ``n_clusters`` distinct rows uniformly at random as initial centroids."""
    X = as_matrix(X)
    n_rows = X.shape[0]
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if n_clusters > n_rows:
        raise ValueError(f"cannot pick {n_clusters} centroids from {n_rows} rows")
    indices = np.sort(rng.choice(n_rows, size=n_clusters, replace=False))
    centroids = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    for i, row_index in enumerate(indices):
        centroids[i] = np.asarray(X[int(row_index) : int(row_index) + 1], dtype=np.float64)[0]
    return centroids


_DISTANCE_BLOCK_ROWS = 64
"""Rows per ``chunk − centroid`` temporary in :func:`_squared_distances`.

A 64 × 784 float64 block (392 KiB) stays in cache between the subtraction and
the row sums; the whole-chunk temporary was 25.7 MB per 4096-row chunk.  One
4096 × 784 chunk, one core: 10–16 ms unblocked, 6.8–7.0 ms at 64 rows (32: 6.7–7.1,
128: 8.0–8.3, 512: 8.3–8.7).  Whole seeding (k = 5) on the e2e benchmark's
65,536 × 784 matrix, two workers, eight alternating processes: 0.25–0.30 s
at 64 rows, 0.27–0.33 s at 128, so this does not share the Lloyd kernel's
128-row ``_kernel.BLOCK_ROWS``.
"""


def _squared_distances(chunk: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Squared distance of every row of ``chunk`` to one ``centroid``.

    The difference form on purpose: rows that coincide with the centroid
    read exactly 0.0, which the all-points-coincide fallback below relies on.
    Each row's sum is the same ``einsum`` whatever block it falls in, so the
    blocking changes no bit of the result.
    """
    out = np.empty(chunk.shape[0], dtype=np.float64)
    for start in range(0, chunk.shape[0], _DISTANCE_BLOCK_ROWS):
        stop = start + _DISTANCE_BLOCK_ROWS
        diff = chunk[start:stop] - centroid
        out[start:stop] = np.einsum("ij,ij->i", diff, diff)
    return out


def kmeans_plus_plus_init(
    X: Any,
    n_clusters: int,
    rng: np.random.Generator,
    chunk_size: int = 4096,
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007), streaming over chunks.

    The first centroid is uniform; each subsequent centroid is sampled with
    probability proportional to the squared distance to the nearest centroid
    chosen so far.  Distances are maintained incrementally: before drawing
    centroid ``k`` one pass folds in the distances to centroid ``k − 1``, so
    seeding makes ``n_clusters − 1`` passes over the data (none for the last
    centroid, whose distances nothing would read) plus one single-row fetch
    per centroid.
    """
    X = as_matrix(X)
    n_rows, n_features = X.shape
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if n_clusters > n_rows:
        raise ValueError(f"cannot pick {n_clusters} centroids from {n_rows} rows")

    centroids = np.empty((n_clusters, n_features), dtype=np.float64)
    first = int(rng.integers(0, n_rows))
    centroids[0] = np.asarray(X[first : first + 1], dtype=np.float64)[0]

    # Squared distance of every row to its nearest chosen centroid.
    min_sq_dist = np.full(n_rows, np.inf)
    for k in range(1, n_clusters):
        sq_dist = stack_row_chunks(
            X, chunk_size, lambda chunk: _squared_distances(chunk, centroids[k - 1])
        )
        np.minimum(min_sq_dist, sq_dist, out=min_sq_dist)
        total = float(min_sq_dist.sum())
        if total <= 0.0:
            # All remaining points coincide with existing centroids; fall back
            # to uniform sampling for the rest.
            remaining = rng.choice(n_rows, size=n_clusters - k, replace=False)
            for j, row_index in enumerate(remaining):
                centroids[k + j] = np.asarray(
                    X[int(row_index) : int(row_index) + 1], dtype=np.float64
                )[0]
            return centroids
        probabilities = min_sq_dist / total
        chosen = int(rng.choice(n_rows, p=probabilities))
        centroids[k] = np.asarray(X[chosen : chosen + 1], dtype=np.float64)[0]

    return centroids
