"""The per-chunk kernels :class:`KMeans` and :class:`MiniBatchKMeans` share.

:func:`lloyd_statistics` is Lloyd's whole per-chunk step — nearest centroid,
per-cluster sums + counts and the inertia — in one pass over
:data:`BLOCK_ROWS`-row blocks, each used for every step while it is still in
cache.  :func:`predict_nearest` and :func:`total_inertia` walk the same
blocks and keep only what they return.  :func:`nearest_centroid` and
:func:`cluster_sums` are the same arithmetic over the whole chunk at once,
what :class:`MiniBatchKMeans` applies to each 1024-row batch.  No kernel
loops in Python over rows or clusters, and each is a deterministic function
of its arguments' values and shapes — memmap view, pool lease or heap array,
same result.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

import numpy as np

from repro.ml.base import map_row_chunks, stack_row_chunks

BLOCK_ROWS = 128
"""Rows per block in :func:`lloyd_statistics`, :func:`predict_nearest`, :func:`total_inertia`.

A 128 × 784 float64 block is 784 KiB, still in L2 (2 MiB per core on the
2-vCPU Xeon guest measured here) when the next step reads it.  One Lloyd
pass inside ``KMeans(5).fit`` over the e2e benchmark's 65,536 × 784
memory-mapped matrix, 4096-row chunks, two workers over a one-thread BLAS
(best of 3, five alternating processes each): whole-chunk kernel
109–126 ms; 64 rows 108–130, 128 rows 68–81, 256 rows 90–99.  On one thread
64 and 128 rows tie (87 and 85 ms per pass); 64 loses only with two workers,
likely because they take turns on the interpreter between twice as many
blocks.  k-means++'s difference pass keeps its own 64-row blocks
(``init._DISTANCE_BLOCK_ROWS``), where 128 measured slower.
"""


def _check_width(chunk: np.ndarray, centroids: np.ndarray) -> None:
    if chunk.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"expected {centroids.shape[1]} columns to match the cluster "
            f"centres, got {chunk.shape[1]}"
        )


def nearest_centroid(chunk: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ``chunk``: the nearest centroid's index, and the offsets ranked.

    ``‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²`` and ``‖x‖²`` is constant under the
    ``argmin``, so rows are ranked by the ``(rows, k)`` offsets ``‖c‖² − 2·x·c``
    alone.
    """
    _check_width(chunk, centroids)
    offsets = np.einsum("ij,ij->i", centroids, centroids) - 2.0 * (chunk @ centroids.T)
    return np.argmin(offsets, axis=1), offsets


def cluster_sums(
    chunk: np.ndarray, nearest: np.ndarray, n_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sums, counts)`` of ``chunk``'s rows per cluster: one ``onehot @ chunk`` gemm."""
    onehot = np.zeros((n_clusters, chunk.shape[0]), dtype=np.float64)
    onehot[nearest, np.arange(chunk.shape[0])] = 1.0
    return onehot @ chunk, np.bincount(nearest, minlength=n_clusters)


def _block_offsets(
    chunk: np.ndarray, centroids: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """``(start, block, offsets)`` for each :data:`BLOCK_ROWS`-row block of ``chunk``.

    The offsets are ``block @ (−2·Cᵀ) + ‖c‖²``: scaling by −2 is exact, so
    they equal :func:`nearest_centroid`'s for a gemm of the same height.
    """
    _check_width(chunk, centroids)
    scaled = -2.0 * centroids.T
    norms = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, chunk.shape[0], BLOCK_ROWS):
        block = chunk[start : start + BLOCK_ROWS]
        offsets = block @ scaled
        offsets += norms
        yield start, block, offsets


def lloyd_statistics(
    chunk: Any, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(nearest, sums, counts, inertia)`` of ``chunk``'s rows, one pass over blocks.

    Per block, while it is still in cache: the offsets' ``argmin``, the
    block's ``onehot @ block`` added into the sums, and ``vdot(block,
    block)``.  Counts are one ``bincount`` per chunk and the inertia is
    ``Σ‖x‖² + Σ min offset``.  The whole-chunk kernel read each chunk three
    times; this one reads it once and a k = 5 Lloyd pass takes 68–81 ms
    instead of 109–126 (see :data:`BLOCK_ROWS`).  Results agree with the
    whole-chunk kernel's to rounding: a gemm's per-row result depends on the
    operand height, and the sums are added in another order.
    """
    chunk = np.asarray(chunk, dtype=np.float64)
    n_clusters = centroids.shape[0]
    nearest = np.empty(chunk.shape[0], dtype=np.intp)
    sums = np.zeros((n_clusters, chunk.shape[1]), dtype=np.float64)
    onehot = np.empty((n_clusters, BLOCK_ROWS), dtype=np.float64)
    columns = np.arange(BLOCK_ROWS)
    squared_norms = min_offsets = 0.0
    for start, block, offsets in _block_offsets(chunk, centroids):
        rows = block.shape[0]
        assigned = np.argmin(offsets, axis=1, out=nearest[start : start + rows])
        min_offsets += float(offsets.min(axis=1).sum())
        onehot.fill(0.0)
        onehot[assigned, columns[:rows]] = 1.0
        sums += onehot[:, :rows] @ block
        squared_norms += float(np.vdot(block, block))
    counts = np.bincount(nearest, minlength=n_clusters)
    return nearest, sums, counts, squared_norms + min_offsets


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
    """Index of the nearest centroid for every row of ``X`` (``int64``).

    :func:`lloyd_statistics`'s blocks and ``argmin`` without its sums.  At
    MiniBatch's shape (1024-row chunks, k = 10, two workers, the benchmark
    matrix) a pass takes 67–77 ms; with the sums it took 123–139 ms, against
    62–71 ms for the whole-chunk ``argmin``.  At ``KMeans``' 4096-row chunks
    and k = 5 it is 35–46 ms against 59–70.
    """

    def assign(chunk: np.ndarray) -> np.ndarray:
        nearest = np.empty(chunk.shape[0], dtype=np.int64)
        for start, block, offsets in _block_offsets(chunk, centroids):
            np.argmin(offsets, axis=1, out=nearest[start : start + block.shape[0]])
        return nearest

    return stack_row_chunks(X, chunk_size, assign, dtype=np.int64)


def total_inertia(X: Any, centroids: np.ndarray, chunk_size: int) -> float:
    """Sum of squared distances of the rows of ``X`` to their nearest centroid.

    :func:`lloyd_statistics`'s inertia, summed in the same order, without the
    assignments and sums nothing here reads.
    """

    def chunk_inertia(_start: int, _stop: int, chunk: Any) -> float:
        squared_norms = min_offsets = 0.0
        for _, block, offsets in _block_offsets(np.asarray(chunk, dtype=np.float64), centroids):
            min_offsets += float(offsets.min(axis=1).sum())
            squared_norms += float(np.vdot(block, block))
        return squared_norms + min_offsets

    return sum((inertia for _, _, inertia in map_row_chunks(X, chunk_size, chunk_inertia)), 0.0)
