"""The per-chunk kernel :class:`KMeans` and :class:`MiniBatchKMeans` share.

Nearest centroid, per-cluster sums + counts, and the summed squared distance
to the nearest centroid: two gemms and a ``bincount``, never a Python loop
over rows or clusters.  Each is a deterministic function of its arguments'
values and shapes — memmap view, pool lease or heap array, same result.
Below the kernel, the two full-matrix inference passes both estimators expose
(:func:`predict_nearest`, :func:`total_inertia`), written once.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.ml.base import map_row_chunks, stack_row_chunks


def nearest_centroid(chunk: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ``chunk``: the nearest centroid's index, and the offsets ranked.

    ``‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²`` and ``‖x‖²`` is constant under the
    ``argmin``, so rows are ranked by the ``(rows, k)`` offsets ``‖c‖² − 2·x·c``
    alone; :func:`min_distance_sum` adds ``‖x‖²`` back.
    """
    if chunk.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"expected {centroids.shape[1]} columns to match the cluster "
            f"centres, got {chunk.shape[1]}"
        )
    offsets = np.einsum("ij,ij->i", centroids, centroids) - 2.0 * (chunk @ centroids.T)
    return np.argmin(offsets, axis=1), offsets


def cluster_sums(
    chunk: np.ndarray, nearest: np.ndarray, n_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sums, counts)`` of ``chunk``'s rows per cluster: one ``onehot @ chunk`` gemm."""
    onehot = np.zeros((n_clusters, chunk.shape[0]), dtype=np.float64)
    onehot[nearest, np.arange(chunk.shape[0])] = 1.0
    return onehot @ chunk, np.bincount(nearest, minlength=n_clusters)


def min_distance_sum(chunk: np.ndarray, offsets: np.ndarray) -> float:
    """Sum of squared distances from ``chunk``'s rows to their nearest centroid."""
    return float(np.sum(np.einsum("ij,ij->i", chunk, chunk) + offsets.min(axis=1)))


def centroid_distances(chunk: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of ``chunk`` to every centroid, ``(rows, k)``.

    ``√(‖x‖² + offsets)`` from :func:`nearest_centroid`'s one gemm — never the
    ``(rows, k, features)`` difference tensor.  The expanded form rounds where
    the difference form cancels exactly: a row that coincides with a centroid
    reads ``≈ 1e-7 · ‖x‖`` rather than 0, so the sum is clipped at 0 first.
    """
    _, offsets = nearest_centroid(chunk, centroids)
    offsets += np.einsum("ij,ij->i", chunk, chunk)[:, None]
    return np.sqrt(np.clip(offsets, 0.0, None, out=offsets), out=offsets)


def predict_nearest(X: Any, centroids: np.ndarray, chunk_size: int) -> np.ndarray:
    """Index of the nearest centroid for every row of ``X`` (``int64``)."""
    return stack_row_chunks(
        X, chunk_size, lambda chunk: nearest_centroid(chunk, centroids)[0], dtype=np.int64
    )


def total_inertia(X: Any, centroids: np.ndarray, chunk_size: int) -> float:
    """Sum of squared distances of the rows of ``X`` to their nearest centroid."""

    def chunk_inertia(_start: int, _stop: int, chunk: Any) -> float:
        chunk = np.asarray(chunk, dtype=np.float64)
        return min_distance_sum(chunk, nearest_centroid(chunk, centroids)[1])

    return sum((inertia for _, _, inertia in map_row_chunks(X, chunk_size, chunk_inertia)), 0.0)
