#!/usr/bin/env python
"""K-means on memory-mapped digit images (the paper's second workload).

Demonstrates:

* Lloyd's k-means with the paper's settings (k = 5, 10 iterations) running
  directly on a memory-mapped dataset (``mmap://``: one raw, checksummed
  shard the OS maps);
* k-means++ vs random initialisation;
* mini-batch k-means (the online-learning extension the paper's ongoing work
  points to), which converges with far fewer passes over the data;
* cluster quality metrics (inertia, purity against the digit labels,
  silhouette score).

Run with::

    python examples/kmeans_clustering.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Session
from repro.data.writers import write_infimnist_dataset
from repro.ml import KMeans, MiniBatchKMeans
from repro.ml.metrics import clustering_purity, silhouette_score


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp, Session() as session:
        dataset_path = Path(tmp) / "infimnist_kmeans.m3"   # a one-shard dataset directory
        write_infimnist_dataset(dataset_path, num_examples=3000, seed=3)
        X, y = session.open(f"mmap://{dataset_path}").arrays()
        labels = np.asarray(y)

        # The paper's configuration: 5 clusters, 10 iterations.
        print("full-batch k-means (paper settings: k=5, 10 iterations)")
        for init in ("k-means++", "random"):
            started = time.perf_counter()
            model = KMeans(n_clusters=5, max_iterations=10, init=init, seed=0)
            model.fit(X)
            elapsed = time.perf_counter() - started
            assignments = model.predict(X)
            print(
                f"  init={init:<10} inertia={model.inertia_:12.4g} "
                f"purity={clustering_purity(labels, assignments):.3f} "
                f"iterations={model.n_iter_} time={elapsed:.1f}s"
            )

        # Ten clusters recovers the digit classes much more cleanly.
        digits_model = KMeans(n_clusters=10, max_iterations=20, seed=0).fit(X)
        digit_assignments = digits_model.predict(X)
        print(
            f"\nk=10 clustering: purity vs digit labels "
            f"{clustering_purity(labels, digit_assignments):.3f}, "
            f"silhouette {silhouette_score(np.asarray(X), digit_assignments, sample_size=400):.3f}"
        )

        # Mini-batch k-means: the online-learning variant.
        started = time.perf_counter()
        minibatch = MiniBatchKMeans(n_clusters=5, max_epochs=3, batch_size=256, seed=0)
        minibatch.fit(X)
        elapsed = time.perf_counter() - started
        full = KMeans(n_clusters=5, max_iterations=10, seed=0).fit(X)
        print(
            f"\nmini-batch k-means (3 epochs): inertia {minibatch.inertia_:.4g} vs "
            f"full-batch {full.inertia_:.4g} "
            f"(ratio {minibatch.inertia_ / full.inertia_:.3f}), "
            f"time {elapsed:.1f}s"
        )
        print(
            "\nmini-batch reaches a comparable inertia with a fraction of the data"
            " passes — relevant to M3 because fewer passes means less paging once"
            " the dataset exceeds RAM."
        )


if __name__ == "__main__":
    main()
