"""Tests for Lloyd's k-means and the initialisation strategies."""

import numpy as np
import pytest

from repro.core.mmap_matrix import MmapMatrix
from repro.data.formats import write_binary_matrix, open_binary_matrix
from repro.ml.cluster import init
from repro.ml.cluster.init import kmeans_plus_plus_init, random_init
from repro.ml.cluster.kmeans import KMeans


class TestInitialisation:
    def test_random_init_picks_actual_rows(self, small_blobs):
        X, _, _ = small_blobs
        centroids = random_init(X, 4, np.random.default_rng(0))
        assert centroids.shape == (4, X.shape[1])
        for centroid in centroids:
            assert np.any(np.all(np.isclose(X, centroid), axis=1))

    def test_kmeans_plus_plus_spreads_centroids(self, small_blobs):
        X, _, true_centers = small_blobs
        centroids = kmeans_plus_plus_init(X, len(true_centers), np.random.default_rng(0))
        # Every true blob centre should have a nearby chosen centroid.
        for center in true_centers:
            distances = np.linalg.norm(centroids - center, axis=1)
            assert distances.min() < 3.0

    def test_too_many_clusters_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            random_init(X, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(X, 5, np.random.default_rng(0))

    def test_duplicate_points_fall_back_gracefully(self):
        X = np.ones((20, 3))
        centroids = kmeans_plus_plus_init(X, 3, np.random.default_rng(0))
        assert centroids.shape == (3, 3)


def unblocked_squared_distances(chunk, centroid):
    diff = chunk - centroid
    return np.einsum("ij,ij->i", diff, diff)


class TestBlockedSquaredDistances:
    """``_squared_distances`` walks the chunk in blocks without changing a bit."""

    @pytest.mark.parametrize("rows", [init._DISTANCE_BLOCK_ROWS * 3 + 17, 1])
    def test_equal_to_the_unblocked_form(self, rows):
        rng = np.random.default_rng(rows)
        chunk = rng.normal(size=(rows, 784))
        centroid = rng.normal(size=784)
        assert np.array_equal(
            init._squared_distances(chunk, centroid), unblocked_squared_distances(chunk, centroid)
        )

    def test_coincident_points_read_exactly_zero(self):
        chunk = np.full((init._DISTANCE_BLOCK_ROWS * 2 + 5, 7), 0.1)
        distances = init._squared_distances(chunk, chunk[0])
        assert np.array_equal(distances, unblocked_squared_distances(chunk, chunk[0]))
        assert np.all(distances == 0.0)
        # ... which is what sends k-means++ to its uniform fallback.
        centroids = kmeans_plus_plus_init(chunk, 3, np.random.default_rng(0), chunk_size=50)
        assert np.array_equal(centroids, np.full((3, 7), 0.1))


class TestKMeans:
    def test_recovers_well_separated_blobs(self, small_blobs):
        X, labels, true_centers = small_blobs
        model = KMeans(n_clusters=len(true_centers), max_iterations=50, seed=0).fit(X)
        # Each true centre should be close to some learned centroid.
        for center in true_centers:
            distances = np.linalg.norm(model.cluster_centers_ - center, axis=1)
            assert distances.min() < 1.0

    def test_paper_configuration(self, small_blobs):
        X, _, _ = small_blobs
        model = KMeans(n_clusters=5, max_iterations=10, seed=0).fit(X)
        assert model.n_iter_ <= 10
        assert model.cluster_centers_.shape == (5, X.shape[1])
        assert model.inertia_ > 0

    def test_inertia_decreases_over_iterations(self, small_blobs):
        X, _, _ = small_blobs
        history = []
        KMeans(
            n_clusters=4, max_iterations=15, seed=1,
            callback=lambda i, c, inertia: history.append(inertia),
        ).fit(X)
        assert all(b <= a + 1e-6 for a, b in zip(history, history[1:]))

    def test_predict_assigns_nearest_centroid(self, small_blobs):
        X, _, _ = small_blobs
        model = KMeans(n_clusters=4, max_iterations=20, seed=0).fit(X)
        assignments = model.predict(X)
        distances = model.transform(X)
        np.testing.assert_array_equal(assignments, np.argmin(distances, axis=1))

    def test_deterministic_given_seed(self, small_blobs):
        X, _, _ = small_blobs
        a = KMeans(n_clusters=3, max_iterations=10, seed=5).fit(X)
        b = KMeans(n_clusters=3, max_iterations=10, seed=5).fit(X)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)

    def test_chunk_size_does_not_change_result(self, small_blobs):
        X, _, _ = small_blobs
        coarse = KMeans(n_clusters=3, max_iterations=10, seed=0, chunk_size=10_000).fit(X)
        fine = KMeans(n_clusters=3, max_iterations=10, seed=0, chunk_size=13).fit(X)
        np.testing.assert_allclose(coarse.cluster_centers_, fine.cluster_centers_, atol=1e-10)

    def test_more_rows_than_clusters_required(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(max_iterations=0)
        with pytest.raises(ValueError):
            KMeans(init="spectral")

    def test_score_is_negative_inertia(self, small_blobs):
        X, _, _ = small_blobs
        model = KMeans(n_clusters=3, max_iterations=10, seed=0).fit(X)
        assert model.score(X) == pytest.approx(-model.inertia(X))

    def test_memmap_training_identical_to_in_memory(self, tmp_path, small_blobs):
        X, _, _ = small_blobs
        path = tmp_path / "blobs.m3"
        write_binary_matrix(path, X)
        data, _, _ = open_binary_matrix(path)
        mapped = MmapMatrix(data, source_path=path)

        in_memory = KMeans(n_clusters=4, max_iterations=10, seed=0).fit(X)
        memory_mapped = KMeans(n_clusters=4, max_iterations=10, seed=0).fit(mapped)
        np.testing.assert_array_equal(in_memory.cluster_centers_, memory_mapped.cluster_centers_)
