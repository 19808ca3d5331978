"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy, clustering_purity, silhouette_score


class TestClassificationMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1])) == pytest.approx(0.75)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestClusteringMetrics:
    def test_purity_of_perfect_clustering(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assignments = np.array([5, 5, 7, 7, 9, 9])
        assert clustering_purity(labels, assignments) == pytest.approx(1.0)

    def test_purity_of_single_cluster(self):
        labels = np.array([0, 0, 1, 1])
        assignments = np.zeros(4, dtype=int)
        assert clustering_purity(labels, assignments) == pytest.approx(0.5)

    def test_silhouette_high_for_separated_clusters(self, small_blobs):
        X, labels, _ = small_blobs
        score = silhouette_score(X, labels, sample_size=200, seed=0)
        assert score > 0.5

    def test_silhouette_requires_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))
