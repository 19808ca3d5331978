"""Tests for Lloyd's k-means and the initialisation strategies."""

import gc
import sys

import numpy as np
import pytest

from repro.core.mmap_matrix import MmapMatrix
from repro.data.formats import write_binary_matrix, open_binary_matrix
from repro.ml.cluster import init
from repro.ml.cluster._kernel import (
    BLOCK_ROWS,
    cluster_sums,
    lloyd_statistics,
    nearest_centroid,
    predict_nearest,
    total_inertia,
)
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


class RowCounting:
    """A matrix that records how many rows each slice of it reads."""

    def __init__(self, X):
        self.X, self.shape, self.dtype = X, X.shape, X.dtype
        self.sliced = []

    def __getitem__(self, key):
        self.sliced.append(len(range(*key.indices(self.shape[0]))))
        return self.X[key]


class TestSeedingPasses:
    @pytest.mark.parametrize("n_clusters", [1, 2, 5])
    def test_one_pass_per_centroid_but_the_last(self, n_clusters):
        # 1000 rows in chunks of 96: no chunk is a single row, so single-row
        # slices are exactly the centroid fetches.
        X = np.random.default_rng(n_clusters).normal(size=(1000, 6))
        counting = RowCounting(X)
        centroids = kmeans_plus_plus_init(counting, n_clusters, np.random.default_rng(0), 96)
        fetches = [rows for rows in counting.sliced if rows == 1]
        passes = [rows for rows in counting.sliced if rows > 1]
        assert len(fetches) == n_clusters
        assert sum(passes) == (n_clusters - 1) * X.shape[0]
        assert np.array_equal(
            centroids, kmeans_plus_plus_init(X, n_clusters, np.random.default_rng(0), 96)
        )


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


def separated_blobs(rows, k, width=24, seed=0):
    rng = np.random.default_rng(seed)
    # Every centre coordinate is at least 20 from zero and the centres are far
    # apart, so per-cluster sums never cancel and no row is near a tie.
    centres = rng.choice([-1.0, 1.0], size=(k, width)) * rng.uniform(20.0, 60.0, (k, width))
    labels = np.arange(rows) % k
    return centres[labels] + rng.normal(size=(rows, width)), centres


def whole_chunk_statistics(chunk, centroids):
    """Lloyd's per-chunk step from the whole-chunk primitives."""
    nearest, offsets = nearest_centroid(chunk, centroids)
    sums, counts = cluster_sums(chunk, nearest, centroids.shape[0])
    inertia = float(np.sum(np.einsum("ij,ij->i", chunk, chunk) + offsets.min(axis=1)))
    return nearest, sums, counts, inertia


class TestLloydStatistics:
    """The blocked kernel against the whole-chunk primitives it replaced."""

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS, 3 * BLOCK_ROWS + 17, 4096])
    def test_matches_the_whole_chunk_primitives(self, rows, k):
        chunk, centres = separated_blobs(rows, k, seed=rows + k)
        nearest, sums, counts, inertia = lloyd_statistics(chunk, centres)
        flat_nearest, flat_sums, flat_counts, flat_inertia = whole_chunk_statistics(chunk, centres)
        assert np.array_equal(nearest, flat_nearest)
        assert np.array_equal(nearest, np.arange(rows) % k)
        assert np.array_equal(counts, flat_counts)
        assert counts.sum() == rows
        np.testing.assert_allclose(sums, flat_sums, rtol=1e-12, atol=0)
        assert inertia == pytest.approx(flat_inertia, rel=1e-12, abs=0)
        assert np.array_equal(predict_nearest(chunk, centres, 1000), flat_nearest)
        assert total_inertia(chunk, centres, 4096) == inertia

    def test_rows_on_the_centroids(self):
        centres = separated_blobs(1, 5)[1]
        rows = 3 * BLOCK_ROWS + 17
        chunk = centres[np.arange(rows) % 5]
        nearest, sums, counts, inertia = lloyd_statistics(chunk, centres)
        assert np.array_equal(nearest, np.arange(rows) % 5)
        assert np.array_equal(counts, np.bincount(np.arange(rows) % 5))
        np.testing.assert_allclose(sums, counts[:, None] * centres, rtol=1e-12, atol=0)
        # ‖x‖² − 2x·c + ‖c‖² cancels to rounding, not to 0.0: far below the
        # squared norms it cancels.
        assert abs(inertia) <= 1e-12 * float(np.vdot(chunk, chunk))

    def test_narrow_dtypes_equal_float64(self):
        chunk, centres = separated_blobs(BLOCK_ROWS + 5, 3)
        narrow = np.round(chunk).astype(np.int32)
        for got, expected in zip(lloyd_statistics(narrow, centres),
                                 lloyd_statistics(narrow.astype(np.float64), centres)):
            assert np.array_equal(got, expected)

    def test_interpreter_work_is_per_block_only(self):
        # Interpreter work of one call: Python + C calls (profile hook) and
        # Python lines executed (trace hook).  It must depend neither on k nor
        # on a block's height, and each added block must add the same amount,
        # so no per-row or per-cluster loop can come back unnoticed; no timing
        # enters the suite.
        def interpreter_work(fn, *args):
            work = {"call": 0, "c_call": 0, "line": 0}

            def profile(frame, event, arg):
                if event in work:
                    work[event] += 1

            def trace(frame, event, arg):
                work["line"] += event == "line"
                return trace

            # Other tests' garbage must not run its finalisers in here.
            gc.collect()
            gc.disable()
            hooks = sys.getprofile(), sys.gettrace()
            sys.setprofile(profile)
            sys.settrace(trace)
            try:
                fn(*args)
            finally:
                sys.settrace(hooks[1])
                sys.setprofile(hooks[0])
                gc.enable()
            return work

        chunk, centres = separated_blobs(3 * BLOCK_ROWS, 8)
        for fn, args in ((lloyd_statistics, ()), (predict_nearest, (4096,)),
                         (total_inertia, (4096,))):
            fn(chunk, centres, *args)   # warm: first-call imports
            work = {
                (k, blocks): interpreter_work(fn, chunk[: blocks * BLOCK_ROWS], centres[:k], *args)
                for k in (2, 8) for blocks in (1, 2, 3)
            }
            assert interpreter_work(fn, chunk[:1], centres[:2], *args) == work[2, 1], fn.__name__
            for blocks in (1, 2, 3):
                assert work[2, blocks] == work[8, blocks], (fn.__name__, blocks)
            for event in ("call", "c_call", "line"):
                growth = [work[2, b + 1][event] - work[2, b][event] for b in (1, 2)]
                assert growth[0] == growth[1] > 0, (fn.__name__, event, growth)


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
