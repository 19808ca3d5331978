"""Tests for mini-batch k-means."""

import gc
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.cluster._kernel import nearest_centroid
from repro.ml.cluster.kmeans import KMeans
from repro.ml.cluster.minibatch_kmeans import MiniBatchKMeans
from repro.ml.persistence import load_model, save_model

# The grouped update divides by per-cluster counts: an unmasked 0/0 for a
# cluster without members would only warn, so warnings are errors here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestMiniBatchKMeans:
    def test_recovers_blob_structure(self, small_blobs):
        X, _, true_centers = small_blobs
        model = MiniBatchKMeans(
            n_clusters=len(true_centers), max_epochs=5, batch_size=64, seed=0
        ).fit(X)
        for center in true_centers:
            distances = np.linalg.norm(model.cluster_centers_ - center, axis=1)
            assert distances.min() < 1.5

    def test_inertia_comparable_to_full_batch(self, small_blobs):
        X, _, _ = small_blobs
        full = KMeans(n_clusters=4, max_iterations=20, seed=0).fit(X)
        mini = MiniBatchKMeans(n_clusters=4, max_epochs=5, batch_size=64, seed=0).fit(X)
        assert mini.inertia_ <= 2.0 * full.inertia_

    def test_predict_shape_and_range(self, small_blobs):
        X, _, _ = small_blobs
        model = MiniBatchKMeans(n_clusters=3, max_epochs=2, seed=0).fit(X)
        assignments = model.predict(X)
        assert assignments.shape == (X.shape[0],)
        assert set(np.unique(assignments)) <= set(range(3))

    def test_deterministic_given_seed(self, small_blobs):
        X, _, _ = small_blobs
        a = MiniBatchKMeans(n_clusters=3, max_epochs=3, seed=4).fit(X)
        b = MiniBatchKMeans(n_clusters=3, max_epochs=3, seed=4).fit(X)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)

    def test_shuffle_mode_learns(self, small_blobs):
        X, _, _ = small_blobs
        model = MiniBatchKMeans(n_clusters=4, max_epochs=3, shuffle=True, seed=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MiniBatchKMeans(n_clusters=0)
        with pytest.raises(ValueError):
            MiniBatchKMeans(max_epochs=0)
        with pytest.raises(ValueError):
            MiniBatchKMeans(batch_size=0)
        with pytest.raises(ValueError):
            MiniBatchKMeans(init="grid")

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            MiniBatchKMeans(n_clusters=10).fit(np.zeros((4, 2)))

    def test_unfitted_predict_rejected(self, small_blobs):
        X, _, _ = small_blobs
        with pytest.raises(RuntimeError):
            MiniBatchKMeans().predict(X)


def sculley_loop(centroids, counts, chunk, assignments):
    """The per-row update ``_update_batch`` ran before it was grouped.

    Kept verbatim as the specification of the closed form: one ``1/n`` step
    per row, cluster by cluster, rows in chunk order within a cluster.
    """
    for cluster in np.unique(assignments):
        members = chunk[assignments == cluster]
        for row in members:
            counts[cluster] += 1
            eta = 1.0 / counts[cluster]
            centroids[cluster] = (1.0 - eta) * centroids[cluster] + eta * row


class TestGroupedUpdate:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        width=st.integers(1, 8),
        priors=st.lists(st.sampled_from([0, 1, 10**6]), min_size=6, max_size=6),
        max_rows=st.sampled_from([1, 2, 24]),
        distinct_rows=st.sampled_from([1, 3, 200]),
    )
    def test_matches_the_sequential_loop(self, seed, k, width, priors, max_rows, distinct_rows):
        rng = np.random.default_rng(seed)
        # Chunks draw from a small pool, so duplicate rows (and, with a pool
        # of one, batches that land in a single cluster) are the common case.
        pool = rng.normal(scale=3.0, size=(distinct_rows, width))
        model = MiniBatchKMeans(n_clusters=k)
        model.cluster_centers_ = rng.normal(size=(k, width))
        model.counts_ = np.array(priors[:k], dtype=np.int64)
        centroids, counts = model.cluster_centers_.copy(), model.counts_.copy()
        for _ in range(120):
            chunk = pool[rng.integers(0, distinct_rows, size=rng.integers(1, max_rows + 1))]
            # Same assignments for both: the loop is the reference for the
            # update, not for how ties between near-equal centres break.
            assignments, _ = nearest_centroid(chunk, model.cluster_centers_)
            sculley_loop(centroids, counts, chunk, assignments)
            model._update_batch(chunk)
            np.testing.assert_array_equal(model.counts_, counts)
            np.testing.assert_allclose(model.cluster_centers_, centroids, rtol=0, atol=1e-10)

    def test_interpreter_work_does_not_grow_with_the_chunk(self, rng):
        # Interpreter work inside one partial_fit: Python + C calls (profile
        # hook) and Python lines executed (trace hook).  Both repeat exactly,
        # so a per-row or per-cluster loop cannot come back unnoticed and no
        # timing enters the suite.  Lines are counted because the old loop's
        # body was operators only: it made no call for the profiler to see.
        def interpreter_work(model, chunk):
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
                model.partial_fit(chunk)
            finally:
                sys.settrace(hooks[1])
                sys.setprofile(hooks[0])
                gc.enable()
            return work

        X = rng.normal(size=(4096, 20))
        model = MiniBatchKMeans(n_clusters=8, seed=0).partial_fit(X)
        small, large = interpreter_work(model, X[:64]), interpreter_work(model, X)
        assert small == large
        assert 0 < small["line"] < 200, small

    def test_zero_row_chunk_after_seeding_is_a_no_op(self, small_blobs):
        X, _, _ = small_blobs
        model = MiniBatchKMeans(n_clusters=4, seed=0).partial_fit(X[:100])
        centres, counts = model.cluster_centers_.copy(), model.counts_.copy()
        model.partial_fit(X[:0])
        np.testing.assert_array_equal(model.cluster_centers_, centres)
        np.testing.assert_array_equal(model.counts_, counts)

    def test_cluster_without_members_is_untouched(self):
        # Two never-used clusters (count 0: the unmasked update would be 0/0)
        # and one that has rows behind it but none in this batch.
        model = MiniBatchKMeans(n_clusters=4)
        model.cluster_centers_ = np.array([[0.0, 0.0], [50.0, 50.0], [-70.0, 9.0], [1e3, 1e3]])
        model.counts_ = np.array([3, 0, 0, 7], dtype=np.int64)
        before = model.cluster_centers_.copy()
        model.partial_fit(np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(model.counts_, [6, 0, 0, 7])
        np.testing.assert_array_equal(model.cluster_centers_[1:], before[1:])
        np.testing.assert_allclose(model.cluster_centers_[0], [0.5, 0.5], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("method", ["partial_fit", "predict", "inertia"])
    def test_wrong_width_names_expected_and_got(self, small_blobs, method):
        X, _, _ = small_blobs
        model = MiniBatchKMeans(n_clusters=4, max_epochs=1, seed=0).fit(X)
        with pytest.raises(ValueError, match=r"expected 5 columns .* got 3"):
            getattr(model, method)(X[:10, :3])

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_narrow_dtypes_are_upcast_once(self, rng, dtype):
        X = rng.integers(-20, 20, size=(300, 6)).astype(dtype)
        narrow = MiniBatchKMeans(n_clusters=3, seed=0)
        wide = MiniBatchKMeans(n_clusters=3, seed=0)
        for start in range(0, 300, 100):
            narrow.partial_fit(X[start : start + 100])
            wide.partial_fit(X[start : start + 100].astype(np.float64))
        assert narrow.cluster_centers_.dtype == np.float64
        np.testing.assert_array_equal(narrow.cluster_centers_, wide.cluster_centers_)


class TestResume:
    """``(cluster_centers_, counts_)`` is the whole update state, and it persists."""

    def test_loaded_model_resumes_where_the_live_one_continues(self, small_blobs, tmp_path):
        X, _, _ = small_blobs
        live = MiniBatchKMeans(n_clusters=4, batch_size=100, seed=0)
        for start in range(0, 300, 100):
            live.partial_fit(X[start : start + 100])
        loaded = load_model(save_model(tmp_path / "kmeans.json", live))
        np.testing.assert_array_equal(loaded.counts_, live.counts_)
        live.partial_fit(X[300:])
        loaded.partial_fit(X[300:])
        np.testing.assert_array_equal(loaded.cluster_centers_, live.cluster_centers_)
        np.testing.assert_array_equal(loaded.counts_, live.counts_)
        assert loaded.counts_.sum() == X.shape[0]

    def test_delta_smaller_than_n_clusters_is_accepted_once_fitted(self, small_blobs, tmp_path):
        X, _, _ = small_blobs
        fitted = MiniBatchKMeans(n_clusters=4, max_epochs=1, seed=0).fit(X[:300])
        loaded = load_model(save_model(tmp_path / "kmeans.json", fitted))
        loaded.partial_fit(X[300:302])
        assert loaded.counts_.sum() == 302
        with pytest.raises(ValueError, match="at least n_clusters=4"):
            MiniBatchKMeans(n_clusters=4, seed=0).partial_fit(X[300:302])

    def test_model_file_without_counts_predicts_but_refuses_partial_fit(self, small_blobs, tmp_path):
        X, _, _ = small_blobs
        fitted = MiniBatchKMeans(n_clusters=4, max_epochs=1, seed=0).fit(X)
        path = save_model(tmp_path / "kmeans.json", fitted)
        document = json.loads(path.read_text())
        del document["attributes"]["counts_"]
        path.write_text(json.dumps(document))
        old = load_model(path)
        centres = old.cluster_centers_.copy()
        np.testing.assert_array_equal(old.predict(X), fitted.predict(X))
        with pytest.raises(ValueError, match="no counts_"):
            old.partial_fit(X[:100])
        np.testing.assert_array_equal(old.cluster_centers_, centres)

    def test_refit_starts_from_a_fresh_seeding(self, small_blobs):
        X, _, _ = small_blobs
        args = dict(n_clusters=4, max_epochs=2, batch_size=100, seed=0)
        fresh = MiniBatchKMeans(**args).fit(X)
        again = MiniBatchKMeans(**args).fit(X[::-1]).fit(X)
        np.testing.assert_array_equal(again.cluster_centers_, fresh.cluster_centers_)
        np.testing.assert_array_equal(again.counts_, fresh.counts_)

        def chunks():
            return ((X[start : start + 100], None) for start in range(0, 400, 100))

        streamed = MiniBatchKMeans(**args).fit_streaming(chunks, finalize=X)
        restreamed = MiniBatchKMeans(**args).fit(X[::-1]).fit_streaming(chunks, finalize=X)
        np.testing.assert_array_equal(restreamed.cluster_centers_, streamed.cluster_centers_)
        np.testing.assert_array_equal(restreamed.counts_, streamed.counts_)
        assert streamed.counts_.sum() == 2 * X.shape[0]
