"""The per-chunk kernel :class:`KMeans` and :class:`MiniBatchKMeans` share.

Nearest centroid, per-cluster sums + counts, and the summed squared distance
to the nearest centroid: two gemms and a ``bincount``, never a Python loop
over rows or clusters.  Each is a deterministic function of its arguments'
values and shapes — memmap view, pool lease or heap array, same result.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
