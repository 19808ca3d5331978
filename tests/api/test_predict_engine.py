"""Tests for the streaming inference subsystem (`Session.predict`).

The acceptance bar: ``session.predict(..., engine="streaming")`` produces
bit-identical predictions to ``model.predict(np.asarray(X))`` for every
estimator/backend pair, peak materialisation on the sharded backend stays
bounded by the chunk size, and ``PredictResult.details`` carries non-trivial
I/O-overlap accounting.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import PredictResult, Session, StreamingEngine
from repro.api.dataset import Dataset
from repro.api.storage import StorageHandle
from repro.ml import (
    GaussianNaiveBayes,
    KMeans,
    LinearRegression,
    LogisticRegression,
    MiniBatchKMeans,
    SoftmaxRegression,
)

BACKENDS = ["memory", "mmap", "shard"]
SHARD_ROWS = 128
CHUNK = 64


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 12))
    true_coef = rng.normal(size=12)
    y = (X @ true_coef + 0.1 * rng.normal(size=600) > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module")
def session(tmp_path_factory, problem):
    X, y = problem
    tmp_path = tmp_path_factory.mktemp("predict_engine")
    with Session() as session:
        specs = {
            "memory": "memory://serve",
            "mmap": f"mmap://{tmp_path}/serve.m3",
            "shard": f"shard://{tmp_path}/serve_shards",
        }
        for spec in specs.values():
            session.create(spec, X, y, **({"shard_rows": SHARD_ROWS} if spec.startswith("shard") else {}))
        session.specs = specs
        yield session


@pytest.fixture(scope="module")
def models(problem):
    """Every estimator family, fitted once in-core."""
    X, y = problem
    y4 = (np.arange(X.shape[0]) % 4).astype(np.int64)
    return {
        "logistic": LogisticRegression(max_iterations=5, chunk_size=CHUNK).fit(X, y),
        "softmax": SoftmaxRegression(max_iterations=4, chunk_size=CHUNK).fit(X, y4),
        "linear": LinearRegression(chunk_size=CHUNK).fit(X, y.astype(np.float64)),
        "kmeans": KMeans(n_clusters=4, max_iterations=4, seed=0, chunk_size=CHUNK).fit(X),
        "minibatch_kmeans": MiniBatchKMeans(
            n_clusters=4, max_epochs=3, batch_size=CHUNK, seed=0
        ).fit(X),
        "naive_bayes": GaussianNaiveBayes(chunk_size=CHUNK).fit(X, y),
    }


class TestStreamingEquivalence:
    """Bit-identical serving for every estimator/backend pair."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name", ["logistic", "softmax", "linear", "kmeans", "minibatch_kmeans", "naive_bayes"]
    )
    def test_predict_matches_in_core(self, session, models, problem, backend, name):
        X, _ = problem
        model = models[name]
        result = session.predict(
            session.specs[backend], model, engine="streaming", chunk_rows=CHUNK
        )
        expected = model.predict(np.asarray(X))
        assert isinstance(result, PredictResult)
        assert result.predictions.dtype == expected.dtype
        assert np.array_equal(result.predictions, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name, method",
        [
            ("logistic", "predict_proba"),
            ("logistic", "decision_function"),
            ("softmax", "predict_proba"),
            ("naive_bayes", "predict_log_proba"),
        ],
    )
    def test_other_methods_match_in_core(self, session, models, problem, backend, name, method):
        X, _ = problem
        model = models[name]
        result = session.predict(
            session.specs[backend], model, method=method, engine="streaming", chunk_rows=CHUNK
        )
        expected = np.asarray(getattr(model, method)(np.asarray(X)))
        assert result.method == method
        assert result.predictions.shape == expected.shape
        assert np.array_equal(result.predictions, expected)

    def test_local_engine_matches_too(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        result = session.predict(session.specs["mmap"], model)  # default local
        assert result.engine == "local"
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))


class TestPredictDetails:
    def test_streaming_details_report_pipeline_accounting(self, session, models, problem):
        X, _ = problem
        result = session.predict(
            session.specs["shard"], models["logistic"], engine="streaming", chunk_rows=CHUNK
        )
        details = result.details
        assert result.engine == "streaming"
        assert result.n_rows == X.shape[0]
        assert details["chunks"] == details["chunks_per_pass"] > 1
        assert details["rows"] == X.shape[0]
        assert details["bytes_read"] == X.shape[0] * X.shape[1] * 8
        assert details["shard_aligned"] is True
        assert details["prefetch_depth"] == 2
        assert details["io_workers"] == 1
        assert [r["chunks"] for r in details["readers"]] == [details["chunks"]]
        assert details["prefetched"] is True
        for key in ("read_s", "io_wait_s", "compute_s"):
            assert details[key] >= 0.0
        # Non-trivial overlap accounting: real reads happened, so io_overlap
        # is a defined fraction, not the no-reads sentinel.
        assert details["io_overlap"] is not None
        assert 0.0 <= details["io_overlap"] <= 1.0
        assert len(details["per_chunk"]) == details["chunks"]

    def test_prefetch_can_be_disabled(self, session, models):
        engine = StreamingEngine(prefetch=False, chunk_rows=100)
        result = session.predict(session.specs["mmap"], models["logistic"], engine=engine)
        assert result.details["prefetch_depth"] == 0
        assert result.details["io_workers"] == 0
        assert "readers" not in result.details
        assert result.details["prefetched"] is False
        assert result.details["chunk_rows"] == 100

    def test_chunk_rows_kwarg_requires_streaming_engine(self, session, models):
        with pytest.raises(ValueError, match="streaming"):
            session.predict(
                session.specs["mmap"], models["logistic"], engine="local", chunk_rows=10
            )

    def test_invalid_chunk_rows_rejected_at_engine_layer(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            StreamingEngine(chunk_rows=0)
        with pytest.raises(ValueError, match="chunk_rows"):
            StreamingEngine(chunk_rows=-5)


class TestOtherEngines:
    def test_simulated_predict_records_and_replays_trace(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        result = session.predict(session.specs["mmap"], model, engine="simulated")
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))
        assert result.trace is not None and len(result.trace) > 0
        assert result.simulation is not None
        assert result.details["simulated_wall_time_s"] > 0.0

    def test_distributed_predict_maps_over_partitions(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        result = session.predict(session.specs["shard"], model, engine="distributed")
        assert result.details["num_partitions"] == 8
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))

    def test_distributed_predict_proba(self, session, models, problem):
        X, _ = problem
        model = models["softmax"]
        result = session.predict(
            session.specs["mmap"], model, method="predict_proba", engine="distributed"
        )
        assert np.array_equal(result.predictions, model.predict_proba(np.asarray(X)))


class TestProtocolErrors:
    def test_missing_method_rejected(self, session, models):
        with pytest.raises(TypeError, match="predict_proba"):
            session.predict(
                session.specs["memory"], models["kmeans"], method="predict_proba"
            )

    def test_private_method_rejected(self, session, models):
        with pytest.raises(ValueError, match="invalid prediction method"):
            session.predict(
                session.specs["memory"], models["logistic"], method="_params"
            )

    def test_streaming_requires_streaming_predictor(self, session):
        class BarePredictor:
            def predict(self, X):
                return np.zeros(X.shape[0])

        with pytest.raises(TypeError, match="StreamingPredictor"):
            session.predict(
                session.specs["memory"], BarePredictor(), engine="streaming"
            )

    def test_swapped_arguments_caught(self, session, models):
        with pytest.raises(TypeError, match="swapped"):
            session.predict(models["logistic"], session.specs["memory"])

    def test_unfitted_model_raises(self, session):
        with pytest.raises(RuntimeError, match="not fitted"):
            session.predict(
                session.specs["memory"], LogisticRegression(), engine="streaming"
            )


class TestEmptyAndSmallDatasets:
    def test_empty_dataset_served(self, models):
        with Session() as fresh:
            fresh.create("memory://empty", np.empty((0, 12)))
            result = fresh.predict("memory://empty", models["logistic"], engine="streaming")
            assert result.predictions.shape[0] == 0
            assert result.details["chunks"] == 0

    def test_single_row_dataset(self, models, problem):
        X, _ = problem
        with Session() as fresh:
            fresh.create("memory://one", X[:1])
            result = fresh.predict("memory://one", models["logistic"], engine="streaming")
            assert np.array_equal(
                result.predictions, models["logistic"].predict(np.asarray(X[:1]))
            )


class _SpyMatrix:
    """Forwarding matrix that records the largest row block ever materialised."""

    def __init__(self, inner):
        self.inner = inner
        self.max_rows_requested = 0

    @property
    def shape(self):
        return self.inner.shape

    @property
    def dtype(self):
        return self.inner.dtype

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, _ = key.indices(self.inner.shape[0])
            self.max_rows_requested = max(self.max_rows_requested, stop - start)
        return self.inner[key]


class TestBoundedMemory:
    """Serving a sharded dataset must stay bounded by the chunk size."""

    @pytest.fixture()
    def sharded_spec(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4000, 64))  # 2 MB
        with Session() as setup:
            spec = f"shard://{tmp_path}/bounded_shards"
            setup.create(spec, X, shard_rows=1000)
        return spec, X

    def test_no_block_larger_than_chunk_is_materialised(self, sharded_spec):
        spec, _ = sharded_spec
        model = LogisticRegression(max_iterations=2).fit(
            np.random.default_rng(3).normal(size=(100, 64)),
            (np.arange(100) % 2).astype(np.int64),
        )
        with Session() as serve:
            dataset = serve.open(spec)
            spy = _SpyMatrix(dataset.matrix)
            spied = Dataset(StorageHandle(matrix=spy), spec="spy://bounded")
            result = StreamingEngine(chunk_rows=250).predict(model, spied)
        assert result.n_rows == 4000
        assert spy.max_rows_requested <= 250

    def test_peak_allocation_bounded_by_chunks_not_matrix(self, sharded_spec):
        spec, X = sharded_spec
        model = LogisticRegression(max_iterations=2).fit(
            np.random.default_rng(3).normal(size=(100, 64)),
            (np.arange(100) % 2).astype(np.int64),
        )
        matrix_bytes = X.nbytes
        assert matrix_bytes >= 2_000_000
        with Session() as serve:
            dataset = serve.open(spec)
            expected = model.predict(np.asarray(dataset.matrix))
            tracemalloc.start()
            try:
                result = serve.predict(dataset, model, engine="streaming", chunk_rows=250)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert np.array_equal(result.predictions, expected)
        # One 250x64 float64 chunk is 128 KB; the output vector is 32 KB.  The
        # whole serving pass must stay far below the 2 MB matrix — the point
        # of streaming inference.  Generous bound for allocator slack.
        assert peak < matrix_bytes / 2, f"peak traced allocation {peak} bytes"


class TestDataParallelPredict:
    """compute_workers fans chunk inference across a pool — bit-identical."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["logistic", "softmax", "kmeans"])
    def test_parallel_predict_bit_identical(self, session, models, problem, backend, name):
        X, _ = problem
        model = models[name]
        expected = np.asarray(model.predict(np.asarray(X)))
        result = session.predict(
            session.open(session.specs[backend]),
            model,
            engine="streaming",
            compute_workers=4,
        )
        assert np.array_equal(result.predictions, expected)
        assert result.details["compute_workers"] == 4

    def test_parallel_predict_proba_bit_identical(self, session, models, problem):
        X, _ = problem
        model = models["softmax"]
        expected = model.predict_proba(np.asarray(X))
        result = session.predict(
            session.open(session.specs["shard"]),
            model,
            method="predict_proba",
            engine="streaming",
            io_workers=0,       # one reader per shard
            compute_workers=3,  # data-parallel inference
        )
        assert np.array_equal(result.predictions, expected)

    def test_parallel_readers_with_sequential_compute(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        result = session.predict(
            session.open(session.specs["shard"]),
            model,
            engine="streaming",
            io_workers=4,
        )
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))
        details = result.details
        assert details["io_workers"] == 4
        assert sum(r["chunks"] for r in details["readers"]) == details["chunks"]

    def test_parallel_predict_on_straddling_chunks_releases_buffers(self, session, models, problem):
        # Unaligned chunks force the buffer-pool path; the worker pool must
        # release every lease or the stream deadlocks on an exhausted ring.
        X, _ = problem
        model = models["logistic"]
        engine = StreamingEngine(
            chunk_rows=100, align_shards=False, io_workers=2, compute_workers=3,
            buffer_pool=2,  # deliberately tiny: forces reuse while in flight
        )
        result = session.predict(session.open(session.specs["shard"]), model, engine=engine)
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))
        assert result.details["buffer_pool_buffers"] == 2
        assert result.details["buffer_pool_leases"] > 2  # the ring recycled

    def test_predict_streaming_parallel_protocol_directly(self, models, problem):
        from repro.api.chunks import open_chunk_stream

        X, _ = problem
        model = models["linear"]
        chunks = open_chunk_stream(X, chunk_rows=64, prefetch=False)
        out = model.predict_streaming_parallel(chunks, X.shape[0], workers=4)
        np.testing.assert_array_equal(out, model.predict(X))

    def test_invalid_worker_count_rejected(self, models, problem):
        X, _ = problem
        with pytest.raises(ValueError, match="workers"):
            models["linear"].predict_streaming_parallel(iter([]), 0, workers=0)
