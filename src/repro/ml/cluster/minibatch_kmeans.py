"""Mini-batch k-means (Sculley 2010).

The online-learning counterpart of Lloyd's algorithm: centroids are updated
after every mini-batch with a per-centroid learning rate of ``1 / count``.
Included for the paper's ongoing-work direction ("online learning") and as an
ablation point — its access pattern is still sequential, but it converges in
far fewer passes, changing the compute/I-O balance that determines whether M3
is I/O bound.

Sculley visits a batch's rows one at a time, ``c ← (1 − 1/n)·c + x/n``.  For
a centroid with ``n₀`` rows behind it and ``m`` members in the batch those
``m`` steps have a closed form, the running mean ``c += (Σ members − m·c) /
(n₀ + m)``, which :meth:`MiniBatchKMeans._update_batch` computes for every
cluster at once from one grouped aggregate (:mod:`repro.ml.cluster._kernel`).
It equals the sequential update up to rounding — counts exactly, centres
within ``1e-10`` over 100+ chunks; ``tests/ml/test_minibatch_kmeans.py`` keeps
the loop as the specification — so centres are *not* bit-identical to releases
that ran the per-row loop, while every engine, storage format and reader count
still agrees bit for bit with ``partial_fit`` driven by hand over the same
chunks.  The whole update state is the fitted pair ``(cluster_centers_,
counts_)``, so a saved model resumes training where it stopped.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClustererMixin,
    StreamingEstimator,
    StreamingPredictor,
    as_matrix,
    iter_row_chunks,
)
from repro.ml.cluster._kernel import (
    cluster_sums,
    nearest_centroid,
    predict_nearest,
    total_inertia,
)
from repro.ml.cluster.init import kmeans_plus_plus_init, random_init


class MiniBatchKMeans(BaseEstimator, ClustererMixin, StreamingEstimator, StreamingPredictor):
    """Mini-batch k-means clustering.

    Parameters
    ----------
    n_clusters:
        Number of clusters.
    max_epochs:
        Number of passes over the data.
    batch_size:
        Rows per mini-batch.
    init:
        ``"k-means++"`` or ``"random"``.
    seed:
        Seed for initialisation and (optional) batch shuffling.
    shuffle:
        Visit batches in random order each epoch.  Defaults to sequential,
        which is the memory-mapping-friendly pattern.

    Attributes
    ----------
    cluster_centers_:
        Final centroids.
    counts_:
        Rows each centroid has absorbed so far (``int64``); with
        ``cluster_centers_`` this is all ``partial_fit`` needs to continue.
    inertia_:
        Inertia over the full dataset measured after the final epoch, summed
        chunk by chunk in row order.  In-core ``fit`` sums ``batch_size``-row
        chunks; a streamed fit sums its own stream's chunks, read and decoded
        by the stream's readers — bit-identical to ``Σ inertia(X[a:b])`` over
        the plan's bounds, and to the in-core value when the plan tiles
        ``batch_size`` rows (e.g. shard heights a multiple of it).
    n_iter_:
        Number of epochs performed.
    """

    def __init__(
        self,
        n_clusters: int = 5,
        max_epochs: int = 10,
        batch_size: int = 1024,
        init: str = "k-means++",
        seed: Optional[int] = None,
        shuffle: bool = False,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        if max_epochs <= 0:
            raise ValueError(f"max_epochs must be positive, got {max_epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if init not in ("k-means++", "random"):
            raise ValueError(f"init must be 'k-means++' or 'random', got {init!r}")
        self.n_clusters = n_clusters
        self.max_epochs = max_epochs
        self.batch_size = batch_size
        self.init = init
        self.seed = seed
        self.shuffle = shuffle

    def fit(self, X: Any, y: Any = None) -> "MiniBatchKMeans":
        """Cluster the rows of ``X``; ``y`` is ignored."""
        X = as_matrix(X)
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds number of rows {X.shape[0]}"
            )
        # Full-dataset initialisation (chunk-streamed internally), then the
        # same per-batch update partial_fit uses.
        rng = np.random.default_rng(self.seed)
        self._seed_centroids(X, rng)

        bounds = list(iter_row_chunks(X, self.batch_size))
        epoch = 0
        for epoch in range(1, self.max_epochs + 1):
            order = rng.permutation(len(bounds)) if self.shuffle else np.arange(len(bounds))
            for index in order:
                start, stop = bounds[int(index)]
                self._update_batch(np.asarray(X[start:stop], dtype=np.float64))

        self.n_iter_ = epoch
        self.inertia_ = self.inertia(X)
        return self

    # -- streaming (partial_fit) -------------------------------------------

    @property
    def streaming_passes(self) -> int:
        """Epochs one full training run makes."""
        return self.max_epochs

    def partial_fit(self, X: Any, y: Any = None, classes: Any = None) -> "MiniBatchKMeans":
        """Consume one mini-batch of rows (``y``/``classes`` are ignored).

        On an unfitted estimator the first chunk seeds the centroids
        (k-means++ or random, per ``init``), so it must contain at least
        ``n_clusters`` rows; every chunk, that one included, is then one
        update of ``cluster_centers_`` / ``counts_`` — also on a model that
        ``load_model`` restored.
        """
        X = as_matrix(X)
        if not hasattr(self, "cluster_centers_"):
            if X.shape[0] < self.n_clusters:
                raise ValueError(
                    f"the first chunk must hold at least n_clusters="
                    f"{self.n_clusters} rows to seed centroids, got {X.shape[0]}"
                )
            self._seed_centroids(X, np.random.default_rng(self.seed))
        elif not hasattr(self, "counts_"):
            raise ValueError(
                "this model has cluster_centers_ but no counts_ (a file saved "
                "before counts_ was persisted): partial_fit cannot weigh new "
                "rows against the rows already seen; refit instead"
            )
        self._update_batch(np.asarray(X[0 : X.shape[0]], dtype=np.float64))
        return self

    def _seed_centroids(self, X: Any, rng: np.random.Generator) -> None:
        init = kmeans_plus_plus_init if self.init == "k-means++" else random_init
        self.cluster_centers_ = init(X, self.n_clusters, rng, self.batch_size)
        self.counts_ = np.zeros(self.n_clusters, dtype=np.int64)

    def _reset_streaming(self) -> None:
        """Forget the centres and counts ``partial_fit`` would continue from."""
        for name in ("cluster_centers_", "counts_"):
            self.__dict__.pop(name, None)

    def _update_batch(self, chunk: np.ndarray) -> None:
        """One mini-batch centroid update on ``chunk``, in place.

        Each cluster with ``m > 0`` members moves to the running mean of the
        rows it has seen, ``c += (Σ members − m·c) / (n₀ + m)``: Sculley's
        ``m`` sequential ``1/n`` steps in closed form, equal up to rounding.
        A cluster without members keeps its centre and count bit for bit.
        """
        centroids, counts = self.cluster_centers_, self.counts_
        nearest, _ = nearest_centroid(chunk, centroids)
        sums, members = cluster_sums(chunk, nearest, centroids.shape[0])
        hit = members > 0
        counts[hit] += members[hit]
        centroids[hit] += (sums[hit] - members[hit, None] * centroids[hit]) / counts[hit, None]

    def finalize_streaming(self, X: Any) -> None:
        """Set the summary attributes that need one look at the full data.

        ``X`` is a matrix or a chunk source (see
        :func:`~repro.ml.base.map_row_chunks`); ``inertia_`` is one pass over it.
        """
        if not hasattr(self, "cluster_centers_"):
            return
        self.n_iter_ = getattr(self, "_streaming_epochs_", self.max_epochs)
        self.inertia_ = total_inertia(
            X if callable(X) else as_matrix(X), self.cluster_centers_, self.batch_size
        )

    def predict(self, X: Any) -> np.ndarray:
        """Index of the nearest centroid for every row of ``X``."""
        self._check_fitted("cluster_centers_")
        return predict_nearest(as_matrix(X), self.cluster_centers_, self.batch_size)

    def inertia(self, X: Any) -> float:
        """Sum of squared distances of rows of ``X`` to their nearest centroid."""
        self._check_fitted("cluster_centers_")
        return total_inertia(as_matrix(X), self.cluster_centers_, self.batch_size)
