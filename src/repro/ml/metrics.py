"""Evaluation metrics for the classifiers and clusterers."""

from __future__ import annotations

import numpy as np


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(y_true == y_pred))


def clustering_purity(y_true: np.ndarray, assignments: np.ndarray) -> float:
    """Purity of a clustering against ground-truth labels.

    For every cluster, count its most frequent true label; purity is the sum
    of those counts divided by the number of points.  1.0 means every cluster
    is label-pure.
    """
    y_true = np.asarray(y_true)
    assignments = np.asarray(assignments)
    if y_true.shape != assignments.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {assignments.shape}")
    if y_true.size == 0:
        raise ValueError("cannot compute purity of empty arrays")
    total = 0
    for cluster in np.unique(assignments):
        members = y_true[assignments == cluster]
        _, counts = np.unique(members, return_counts=True)
        total += int(counts.max())
    return total / y_true.size


def silhouette_score(X: np.ndarray, assignments: np.ndarray, sample_size: int = 500, seed: int = 0) -> float:
    """Mean silhouette coefficient, optionally on a random subsample.

    The silhouette of a point compares its mean intra-cluster distance ``a``
    to the smallest mean distance to another cluster ``b``:
    ``(b - a) / max(a, b)``.  Values near 1 mean well-separated clusters.
    """
    X = np.asarray(X, dtype=np.float64)
    assignments = np.asarray(assignments)
    if X.shape[0] != assignments.shape[0]:
        raise ValueError("assignments must have one entry per row of X")
    clusters = np.unique(assignments)
    if clusters.shape[0] < 2:
        raise ValueError("silhouette requires at least 2 clusters")

    n = X.shape[0]
    if n > sample_size:
        rng = np.random.default_rng(seed)
        indices = rng.choice(n, size=sample_size, replace=False)
    else:
        indices = np.arange(n)

    scores = []
    for i in indices:
        point = X[i]
        own = assignments[i]
        distances = np.linalg.norm(X - point, axis=1)
        own_mask = assignments == own
        if own_mask.sum() <= 1:
            scores.append(0.0)
            continue
        a = distances[own_mask].sum() / (own_mask.sum() - 1)
        b = np.inf
        for cluster in clusters:
            if cluster == own:
                continue
            mask = assignments == cluster
            b = min(b, float(distances[mask].mean()))
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))
