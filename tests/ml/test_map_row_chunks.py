"""The ordered, chunk-parallel map under every full-matrix pass.

What the primitive promises is that it is invisible: at any worker count,
over any storage, every fitted attribute and every prediction is
``array_equal`` to the plain serial loop's — kept here, hand-written, as the
reference — the access trace a memory-mapped matrix records does not change,
and no thread outlives a call.  The worker count is forced by monkeypatching
``repro.ml.base._compute_threads`` (the one function that computes it), never
through the environment.
"""

from __future__ import annotations

import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro import Session, fanout
from repro.api import write_sharded_dataset
from repro.ml import KMeans, LinearRegression, LogisticRegression, SoftmaxRegression
from repro.ml import base
from repro.ml.base import iter_row_chunks, map_ordered, map_row_chunks
from repro.ml.cluster._kernel import BLOCK_ROWS
from repro.ml.linear_model.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
    SoftmaxRegressionObjective,
)
from repro.ml.optim.lbfgs import LBFGS

ROWS, COLS, CLASSES, CHUNK = 1000, 12, 4, 96   # 11 chunks, the last one short
KMEANS_CHUNK = 3 * BLOCK_ROWS + 17   # Lloyd chunks of several blocks, the last one short
WORKERS = (1, 2, 4)
INPUTS = ("ndarray", "mmap", "shard_raw", "shard_zlib")


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    centres = rng.normal(scale=4.0, size=(CLASSES, COLS))
    y = rng.integers(0, CLASSES, size=ROWS)
    X = centres[y] + rng.normal(size=(ROWS, COLS))
    return X, y.astype(np.int64), (y % 2).astype(np.int64), X @ rng.normal(size=COLS) + 0.5


@pytest.fixture(scope="module")
def stored(problem, tmp_path_factory):
    """The same rows behind each storage an estimator can be handed."""
    X, y, _, _ = problem
    root = tmp_path_factory.mktemp("stored")
    with Session() as session:
        specs = {
            "mmap": session.create(f"mmap://{root / 'data.m3'}", X, y),
            "shard_raw": session.create(f"shard://{root / 'raw'}", X, y, shard_rows=250),
            "shard_zlib": f"shard://{root / 'zlib'}",
        }
        write_sharded_dataset(root / "zlib", X, y, shard_rows=250, codec="zlib", block_rows=64)
        matrices = {"ndarray": X}
        matrices.update({name: session.open(spec).matrix for name, spec in specs.items()})
        yield matrices, specs


@pytest.fixture()
def force_workers(monkeypatch):
    def force(count: int) -> None:
        monkeypatch.setattr(base, "_compute_threads", lambda: count)

    return force


# -- the serial loops, as they were written before the primitive existed ----------


def serial_value_and_gradient(objective, params):
    params = np.asarray(params, dtype=np.float64)
    total_loss = 0.0
    total_grad = np.zeros(objective.num_parameters)
    for start, stop in iter_row_chunks(objective.X, objective.chunk_size):
        loss, grad = objective.batch_value_and_gradient(params, start, stop)
        total_loss += loss
        total_grad += grad
    penalty, penalty_grad = objective._penalty_and_grad(params)
    return (total_loss / objective.n_samples + penalty,
            total_grad / objective.n_samples + penalty_grad)


def serial_lbfgs(objective, max_iterations, tolerance):
    objective.value_and_gradient = lambda params: serial_value_and_gradient(objective, params)
    return LBFGS(max_iterations=max_iterations, tolerance=tolerance).minimize(objective).params


def serial_normal_equations(X, y):
    gram = np.zeros((COLS + 1, COLS + 1))
    moment = np.zeros(COLS + 1)
    for start, stop in iter_row_chunks(X, CHUNK):
        chunk = np.asarray(X[start:stop], dtype=np.float64)
        gram[:COLS, :COLS] += chunk.T @ chunk
        gram[COLS, :COLS] += chunk.sum(axis=0)
        moment[:COLS] += y[start:stop] @ chunk
        moment[COLS] += y[start:stop].sum()
    gram[:COLS, COLS] = gram[COLS, :COLS]
    gram[COLS, COLS] = X.shape[0]
    return np.linalg.solve(gram, moment)


def serial_kmeans_plus_plus(X, n_clusters, rng):
    centroids = np.empty((n_clusters, X.shape[1]))
    centroids[0] = X[int(rng.integers(0, X.shape[0]))]
    min_sq_dist = np.empty(X.shape[0])
    for start, stop in iter_row_chunks(X, CHUNK):
        diff = X[start:stop] - centroids[0]
        min_sq_dist[start:stop] = np.einsum("ij,ij->i", diff, diff)
    for k in range(1, n_clusters):
        centroids[k] = X[int(rng.choice(X.shape[0], p=min_sq_dist / min_sq_dist.sum()))]
        for start, stop in iter_row_chunks(X, CHUNK):
            diff = X[start:stop] - centroids[k]
            np.minimum(min_sq_dist[start:stop], np.einsum("ij,ij->i", diff, diff),
                       out=min_sq_dist[start:stop])
    return centroids


def serial_lloyd(X, centroids, iterations, chunk=CHUNK):
    """Lloyd's iterations written out per chunk and per ``BLOCK_ROWS``-row block.

    Each chunk's sums and ``‖x‖²`` / min-offset totals start from zero and
    gather its blocks in order, then join the running totals in chunk order.
    """
    k = centroids.shape[0]
    for _ in range(iterations):
        sums, counts, inertia = np.zeros_like(centroids), np.zeros(k, dtype=np.int64), 0.0
        for start, stop in iter_row_chunks(X, chunk):
            chunk_sums, squared_norms, min_offsets = np.zeros_like(centroids), 0.0, 0.0
            for block_start in range(start, stop, BLOCK_ROWS):
                block = X[block_start:min(block_start + BLOCK_ROWS, stop)]
                offsets = block @ (-2.0 * centroids.T) + np.einsum("ij,ij->i", centroids, centroids)
                nearest = offsets.argmin(axis=1)
                members = (np.arange(k)[:, None] == nearest).astype(np.float64)
                chunk_sums += members @ block
                counts += members.sum(axis=1).astype(np.int64)
                min_offsets += float(offsets.min(axis=1).sum())
                squared_norms += float(np.vdot(block, block))
            sums += chunk_sums
            inertia += squared_norms + min_offsets
        assert np.all(counts > 0)
        centroids = sums / counts[:, None]
    return centroids, inertia


def serial_predict(method, X):
    """A row-wise prediction method, one chunk at a time, stitched by hand."""
    return np.concatenate([method(X[start:stop]) for start, stop in iter_row_chunks(X, CHUNK)])


def fitted_models(X, y, y_binary, y_real):
    return {
        "softmax": SoftmaxRegression(max_iterations=6, l2_penalty=0.01, chunk_size=CHUNK).fit(X, y),
        "logistic": LogisticRegression(max_iterations=6, l2_penalty=0.01,
                                       chunk_size=CHUNK).fit(X, y_binary),
        "linear_normal": LinearRegression(chunk_size=CHUNK).fit(X, y_real),
        "linear_lbfgs": LinearRegression(solver="lbfgs", max_iterations=6,
                                         chunk_size=CHUNK).fit(X, y_real),
        "kmeans_pp": KMeans(n_clusters=CLASSES, max_iterations=5, tolerance=-1.0,
                            chunk_size=CHUNK, seed=3).fit(X),
        "kmeans_random": KMeans(n_clusters=CLASSES, max_iterations=5, tolerance=-1.0,
                                init="random", chunk_size=CHUNK, seed=3).fit(X),
        "kmeans_blocks": KMeans(n_clusters=CLASSES, max_iterations=5, tolerance=-1.0,
                                chunk_size=KMEANS_CHUNK, seed=3).fit(X),
    }


PREDICTION_METHODS = {
    "softmax": ("decision_function", "predict_proba", "predict"),
    "logistic": ("decision_function", "predict_proba", "predict"),
    "linear_normal": ("predict",),
    "linear_lbfgs": ("predict",),
    "kmeans_pp": ("predict", "transform"),
    "kmeans_random": ("predict", "transform"),
    # Not transform: its whole-chunk gemm rounds by chunk height, and
    # serial_predict stitches CHUNK-row pieces.
    "kmeans_blocks": ("predict",),
}


@pytest.fixture(scope="module")
def reference(problem):
    """Everything the matrix below compares against, from hand-written serial loops."""
    X, y, y_binary, y_real = problem
    expected = {}
    params = serial_lbfgs(
        SoftmaxRegressionObjective(X, y, n_classes=CLASSES, l2_penalty=0.01, chunk_size=CHUNK),
        6, 1e-6).reshape(COLS + 1, CLASSES)
    expected["softmax"] = (params[:COLS], params[COLS])
    params = serial_lbfgs(
        LogisticRegressionObjective(X, y_binary, l2_penalty=0.01, chunk_size=CHUNK), 6, 1e-6)
    expected["logistic"] = (params[:COLS], params[COLS])
    params = serial_normal_equations(X, y_real)
    expected["linear_normal"] = (params[:COLS], params[COLS])
    params = serial_lbfgs(LinearRegressionObjective(X, y_real, chunk_size=CHUNK), 6, 1e-8)
    expected["linear_lbfgs"] = (params[:COLS], params[COLS])
    expected["kmeans_pp"] = serial_lloyd(
        X, serial_kmeans_plus_plus(X, CLASSES, np.random.default_rng(3)), 5)
    rows = np.sort(np.random.default_rng(3).choice(ROWS, size=CLASSES, replace=False))
    expected["kmeans_random"] = serial_lloyd(X, X[rows].copy(), 5)
    expected["kmeans_blocks"] = serial_lloyd(
        X, serial_kmeans_plus_plus(X, CLASSES, np.random.default_rng(3)), 5, KMEANS_CHUNK)
    return expected


def fitted_attributes(name, model):
    if name.startswith("kmeans"):
        return model.cluster_centers_, model.inertia_
    return model.coef_, model.intercept_


class TestBitIdentity:
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_fits_and_predictions_equal_the_serial_loop(
        self, problem, stored, reference, force_workers, workers, kind
    ):
        X, y, y_binary, y_real = problem
        matrix = stored[0][kind]
        force_workers(1)
        serial_models = fitted_models(matrix, y, y_binary, y_real)
        force_workers(workers)
        models = fitted_models(matrix, y, y_binary, y_real)
        for name, model in models.items():
            for got, at_one, by_hand in zip(fitted_attributes(name, model),
                                            fitted_attributes(name, serial_models[name]),
                                            reference[name]):
                assert np.array_equal(got, at_one), (name, "vs workers=1")
                assert np.array_equal(got, by_hand), (name, "vs the hand-written loop")
            for method in PREDICTION_METHODS[name]:
                got = getattr(model, method)(matrix)
                force_workers(1)
                assert np.array_equal(got, getattr(model, method)(matrix)), (name, method)
                assert np.array_equal(got, serial_predict(getattr(model, method), X)), (name, method)
                force_workers(workers)
        clusterer = models["kmeans_pp"]
        by_hand = 0.0
        for start, stop in iter_row_chunks(X, CHUNK):
            by_hand += clusterer.inertia(X[start:stop])
        assert clusterer.inertia(matrix) == by_hand

    @pytest.mark.parametrize("workers", (2, 4))
    def test_every_other_full_matrix_pass(self, problem, force_workers, workers):
        from repro.ml import PCA, GaussianNaiveBayes, MiniBatchKMeans
        from repro.ml.preprocessing import MinMaxScaler, StandardScaler

        X, y, _, _ = problem

        def run():
            bayes = GaussianNaiveBayes(chunk_size=CHUNK).fit(X, y)
            pca = PCA(n_components=3, chunk_size=CHUNK).fit(X)
            standard = StandardScaler(chunk_size=CHUNK).fit(X)
            minmax = MinMaxScaler(chunk_size=CHUNK).fit(X)
            minibatch = MiniBatchKMeans(n_clusters=CLASSES, max_epochs=2, batch_size=CHUNK,
                                        seed=0).fit(X)
            return (bayes.predict_proba(X), bayes.predict(X), pca.components_, pca.transform(X),
                    standard.mean_, standard.scale_, standard.transform(X),
                    minmax.data_min_, minmax.data_max_, minmax.transform(X),
                    minibatch.cluster_centers_, minibatch.predict(X),
                    np.float64(minibatch.inertia_))

        force_workers(1)
        serial = run()
        force_workers(workers)
        for got, expected in zip(run(), serial):
            assert np.array_equal(got, expected)


class TestAccessTrace:
    """Chunks are sliced in order on the calling thread, whatever the workers do."""

    def _records(self, spec, force_workers, workers, engine):
        force_workers(workers)
        with Session() as session:
            dataset = session.open(spec)
            if engine == "local":
                dataset.start_trace()
            fit = session.fit(
                KMeans(n_clusters=3, max_iterations=3, chunk_size=CHUNK, seed=0),
                dataset, engine=engine)
            served = session.predict(dataset, fit.model, engine=engine)
        if engine == "local":
            assert fit.details["compute_threads"] == workers
            assert served.details["compute_threads"] == workers
        return fit, served

    @pytest.mark.parametrize("workers", (2, 4))
    def test_local_engine_trace_is_record_for_record_the_serial_one(
        self, stored, force_workers, workers
    ):
        serial_fit, _ = self._records(stored[1]["mmap"], force_workers, 1, "local")
        fit, _ = self._records(stored[1]["mmap"], force_workers, workers, "local")
        assert len(serial_fit.trace.records) > 3 * (ROWS // CHUNK)
        # fit and predict share the handle's trace: both passes are in it.
        assert fit.trace.records == serial_fit.trace.records

    @pytest.mark.parametrize("workers", (2, 4))
    def test_simulated_engine_returns_the_same_replay(self, stored, force_workers, workers):
        serial = self._records(stored[1]["mmap"], force_workers, 1, "simulated")
        parallel = self._records(stored[1]["mmap"], force_workers, workers, "simulated")
        for got, expected in zip(parallel, serial):
            assert got.trace.records == expected.trace.records
            assert got.simulation.wall_time_s == expected.simulation.wall_time_s
            assert got.simulation.io_stats == expected.simulation.io_stats
            assert got.simulation.cache_stats_dict == expected.simulation.cache_stats_dict


class TestFanOutContract:
    def test_error_surfaces_at_its_chunk_and_cancels_the_rest(self, force_workers):
        force_workers(2)
        X = np.arange(40.0).reshape(20, 2)   # 10 chunks of 2 rows
        threads_before = set(threading.enumerate())
        sliced, started = [], []

        class Recording:
            shape = X.shape

            def __getitem__(self, key):
                sliced.append(key.start)
                return X[key]

        def fn(start, stop, chunk):
            started.append(start)
            if start == 6:   # chunk 3
                raise KeyError("chunk 3")
            return float(chunk.sum())

        results = []
        with pytest.raises(KeyError, match="chunk 3"):
            for start, stop, value in map_row_chunks(Recording(), 2, fn):
                results.append((start, stop, value))
        assert results == [
            (start, start + 2, float(X[start:start + 2].sum())) for start in (0, 2, 4)
        ]
        # At most workers + 1 = 3 chunks are ever in flight, so chunk 5 is the
        # last one drawn when chunk 3 fails; nothing past it was ever sliced,
        # let alone computed, and every thread is gone.
        assert sliced == [0, 2, 4, 6, 8, 10]
        assert set(started) <= set(sliced) and {0, 2, 4, 6} <= set(started)
        assert set(threading.enumerate()) == threads_before

    def test_abandoned_generator_leaves_no_thread(self, force_workers):
        force_workers(4)
        X = np.ones((64, 3))
        threads_before = set(threading.enumerate())
        chunks = map_row_chunks(X, 4, lambda start, stop, chunk: chunk.sum())
        assert next(chunks) == (0, 4, 12.0)
        assert any(t.name.startswith(base.COMPUTE_THREAD_PREFIX) for t in threading.enumerate())
        chunks.close()
        assert set(threading.enumerate()) == threads_before

    def test_slices_on_the_calling_thread_within_the_in_flight_bound(self, force_workers):
        force_workers(2)
        X = np.ones((60, 2))
        in_flight = peak = 0
        lock = threading.Lock()
        slicers, computers = set(), set()

        class Counting:
            shape = X.shape

            def __getitem__(self, key):
                nonlocal in_flight, peak
                slicers.add(threading.current_thread())
                with lock:
                    in_flight += 1
                    peak = max(peak, in_flight)
                return X[key]

        def fn(start, stop, chunk):
            nonlocal in_flight
            computers.add(threading.current_thread())
            total = chunk.sum()
            with lock:
                in_flight -= 1
            return total

        assert [v for _, _, v in map_row_chunks(Counting(), 3, fn)] == [6.0] * 20
        assert 2 <= peak <= 3   # workers + 1
        assert slicers == {threading.current_thread()}
        assert 1 <= len(computers) <= 2 and threading.current_thread() not in computers

    def test_call_from_inside_a_worker_runs_inline(self, problem, force_workers):
        X, y, _, _ = problem
        force_workers(2)
        model = SoftmaxRegression(max_iterations=2, chunk_size=16).fit(X, y)
        calls = []

        def fn(start, stop, chunk):
            me = threading.current_thread()
            inner = [thread for _, _, thread in map_row_chunks(
                chunk, 16, lambda *_: threading.current_thread())]
            calls.append((me, inner))
            return model.predict(chunk)   # itself a pass over up to 25 chunks

        stitched = np.concatenate([labels for _, _, labels in map_row_chunks(X, 400, fn)])
        assert [len(inner) for _, inner in sorted(calls, key=lambda c: -len(c[1]))] == [25, 25, 13]
        for me, inner in calls:
            assert me.name.startswith(base.COMPUTE_THREAD_PREFIX)
            assert all(thread is me for thread in inner)
        force_workers(1)
        assert np.array_equal(stitched, model.predict(X))

    def test_order_holds_under_contention(self):
        """More workers than cores, a tiny switch interval, uneven chunk costs."""
        import sys

        rng = np.random.default_rng(1)
        costs = rng.integers(1, 2000, size=300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(map_ordered(lambda n: (n, sum(range(n))), costs, 8, 9))
        finally:
            sys.setswitchinterval(interval)
        assert got == [(n, n * (n - 1) // 2) for n in costs]

    def test_one_chunk_input_creates_no_thread(self, problem, force_workers, monkeypatch):
        X, y, _, _ = problem
        force_workers(4)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-chunk input must not create a pool")

        model = SoftmaxRegression(max_iterations=2, chunk_size=CHUNK).fit(X, y)
        clusterer = KMeans(n_clusters=3, max_iterations=2, chunk_size=CHUNK, seed=0).fit(X)
        monkeypatch.setattr(fanout, "ThreadPoolExecutor", no_pool)
        model.predict(X[:CHUNK])
        model.predict_proba(X[:1])
        clusterer.predict(X[:CHUNK])
        clusterer.inertia(X[:CHUNK])
        SoftmaxRegression(max_iterations=2, chunk_size=ROWS).fit(X, y)
        with pytest.raises(AssertionError, match="single-chunk"):
            model.predict(X[: CHUNK + 1])   # the guard itself works


class TestWorkerRule:
    @pytest.fixture()
    def cpus(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        return 8

    def test_unpinned_blas_keeps_the_serial_loop(self, cpus):
        assert base.blas_threads() == cpus
        assert base._compute_threads() == 1

    def test_one_blas_thread_gives_every_cpu(self, cpus, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert base._compute_threads() == cpus == base.compute_threads()

    def test_openblas_variable_wins_over_openmp(self, cpus, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert base._compute_threads() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert (base.blas_threads(), base._compute_threads()) == (4, 2)

    @pytest.mark.parametrize("value", ("64", "3"))
    def test_never_zero(self, cpus, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert base._compute_threads() == max(1, cpus // int(value)) >= 1

    @pytest.mark.parametrize("value", ("", "0", "-2", "many"))
    def test_unusable_value_falls_through(self, cpus, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert base.blas_threads() == 2


class TestKMeansTransform:
    """One gemm instead of a (rows, k, features) difference tensor."""

    def test_agrees_with_the_broadcast_form(self, problem):
        X, _, _, _ = problem
        model = KMeans(n_clusters=5, max_iterations=3, chunk_size=CHUNK, seed=0).fit(X)
        diff = X[:, None, :] - model.cluster_centers_[None, :, :]
        broadcast = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        distances = model.transform(X)
        assert distances.shape == (ROWS, 5)
        np.testing.assert_allclose(distances, broadcast, rtol=0, atol=1e-9)
        assert np.array_equal(distances.argmin(axis=1), model.predict(X))

    def test_a_row_on_a_centroid_is_clipped_not_nan(self):
        X = np.vstack([np.full((8, 6), 3.1), np.full((8, 6), -7.3)])
        model = KMeans(n_clusters=2, max_iterations=2, init="random", chunk_size=4, seed=0).fit(X)
        distances = model.transform(X)
        assert np.all(np.isfinite(distances)) and np.all(distances >= 0.0)
        assert np.all(distances.min(axis=1) < 1e-6)

    def test_peak_allocation_stays_under_two_chunks(self):
        rows, cols, k, chunk = 4096, 256, 5, 512
        X = np.random.default_rng(0).normal(size=(rows, cols))
        model = KMeans(n_clusters=k, max_iterations=1, chunk_size=chunk, seed=0).fit(X)
        model.transform(X[:chunk])   # warm: imports, BLAS buffers
        tracemalloc.start()
        try:
            model.transform(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The broadcast form held a (chunk, k, cols) temporary: 5 chunks' worth.
        assert peak < 2 * chunk * cols * 8, f"peak traced allocation {peak} bytes"
