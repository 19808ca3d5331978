"""Tests for the streaming inference subsystem (`Session.predict`).

The acceptance bar: ``session.predict(..., engine="streaming")`` produces
bit-identical predictions to ``model.predict(np.asarray(X))`` for every
estimator/backend pair, peak materialisation on the sharded backend stays
bounded by the chunk size, and ``PredictResult.details`` carries non-trivial
I/O-overlap accounting.  A stream is predicted through one body,
``StreamingPredictor.predict_streaming``; its matrix (workers × format ×
method, and the failing chunk) is at the end.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.api import (
    ChunkBufferPool,
    PredictResult,
    Session,
    StreamingEngine,
    open_chunk_stream,
    write_sharded_dataset,
)
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
from repro.ml import base
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator

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
        write_sharded_dataset(
            tmp_path / "serve_zlib", X, y, shard_rows=SHARD_ROWS, codec="zlib", block_rows=48
        )
        specs["shard_zlib"] = f"shard://{tmp_path}/serve_zlib"
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
            session.specs[backend], model, engine=StreamingEngine(chunk_rows=CHUNK)
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
            session.specs[backend], model, method=method, engine=StreamingEngine(chunk_rows=CHUNK)
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
            session.specs["shard"], models["logistic"], engine=StreamingEngine(chunk_rows=CHUNK)
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

    def test_invalid_chunk_rows_rejected_at_engine_layer(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            StreamingEngine(chunk_rows=0)
        with pytest.raises(ValueError, match="chunk_rows"):
            StreamingEngine(chunk_rows=-5)


class TestTracedPredict:
    """Inference on a trace-recording handle: same predictions, replayable trace."""

    def test_local_predict_records_a_replayable_trace(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        dataset = session.open(session.specs["mmap"], record_trace=True)
        result = session.predict(dataset, model)
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))
        assert result.trace is dataset.trace and len(result.trace) > 0
        simulation = VirtualMemorySimulator(VirtualMemoryConfig()).run_trace(result.trace)
        assert simulation.wall_time_s > 0.0

    def test_traced_predict_over_shards(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        dataset = session.open(session.specs["shard"], record_trace=True)
        result = session.predict(dataset, model)
        assert result.engine == "local"
        assert len(result.trace) > 0
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))

    def test_traced_predict_proba(self, session, models, problem):
        X, _ = problem
        model = models["softmax"]
        dataset = session.open(session.specs["mmap"], record_trace=True)
        result = session.predict(dataset, model, method="predict_proba")
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
                result = serve.predict(dataset, model, engine=StreamingEngine(chunk_rows=250))
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
            engine=StreamingEngine(compute_workers=4),
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
            # Two readers, data-parallel inference.
            engine=StreamingEngine(io_workers=2, compute_workers=3),
        )
        assert np.array_equal(result.predictions, expected)

    def test_parallel_readers_with_sequential_compute(self, session, models, problem):
        X, _ = problem
        model = models["logistic"]
        result = session.predict(
            session.open(session.specs["shard"]),
            model,
            engine=StreamingEngine(io_workers=4, compute_workers=1),
        )
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))
        details = result.details
        assert details["io_workers"] == 4
        assert sum(r["chunks"] for r in details["readers"]) == details["chunks"]


class TestDefaultComputeWorkers:
    """``StreamingEngine()`` serves on ``compute_threads()`` workers —
    bit-identical to one worker and to in-core."""

    @pytest.fixture(autouse=True)
    def blas_pinned_on_two_cpus(self, monkeypatch):
        # Two workers whatever the runner: two CPUs, BLAS pinned to one thread.
        monkeypatch.setattr(base, "available_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @pytest.mark.parametrize("backend", ["mmap", "shard", "shard_zlib"])
    @pytest.mark.parametrize(
        "name, method", [("logistic", "predict"), ("softmax", "predict_proba")]
    )
    def test_default_matches_one_worker_and_in_core(
        self, session, models, problem, backend, name, method
    ):
        X, _ = problem
        model = models[name]
        engine = StreamingEngine()
        assert engine.compute_workers == 2
        fanned = session.predict(session.specs[backend], model, method=method, engine=engine)
        serial = session.predict(
            session.specs[backend], model, method=method,
            engine=StreamingEngine(compute_workers=1),
        )
        assert fanned.details["compute_workers"] == 2
        assert serial.details["compute_workers"] == 1
        assert np.array_equal(fanned.predictions, serial.predictions)
        assert np.array_equal(fanned.predictions, getattr(model, method)(np.asarray(X)))


FORMATS = {"raw": "shard", "zlib": "shard_zlib"}


class TestPredictStreaming:
    """The one body a stream is predicted through, driven on the streams
    ``open_chunk_stream`` builds — where inline reads, unaligned plans and
    the buffer ring are chosen."""

    @pytest.mark.parametrize("method", ["predict", "predict_proba"])
    @pytest.mark.parametrize("fmt", ["raw", "zlib"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_in_core(self, session, models, problem, workers, fmt, method):
        X, _ = problem
        model = models["softmax"]
        expected = getattr(model, method)(np.asarray(X))
        spec = session.specs[FORMATS[fmt]]
        served = session.predict(
            spec, model, method=method,
            engine=StreamingEngine(chunk_rows=CHUNK, io_workers=2, compute_workers=workers),
        )
        assert np.array_equal(served.predictions, expected)
        assert served.details["compute_workers"] == workers
        # Unaligned 100-row chunks straddle the 128-row shards: stitched (raw)
        # or decoded (zlib) into pooled leases that each worker hands back.
        matrix = session.open(spec).matrix
        with open_chunk_stream(matrix, chunk_rows=100, align_shards=False, io_workers=2) as stream:
            out = model.predict_streaming(stream, X.shape[0], method=method, workers=workers)
            assert stream.pool.leases_served >= (6 if fmt == "zlib" else 4)
            assert stream.pool.available == stream.pool.buffers
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("fmt", ["raw", "zlib"])
    def test_failing_chunk_returns_every_lease(self, session, models, problem, fmt):
        """A failing chunk cancels the queued ones; their pooled buffers still go back.

        Chunk 1 fails at once while both workers are busy with slower chunks,
        so at least chunk 4 is cancelled before it starts.  (The suite-wide
        lease and thread leak guards in ``conftest.py`` are what fail this test
        if its lease is dropped.)
        """
        X, _ = problem
        model = models["linear"]
        served = []

        class FailsOnChunkOne(LinearRegression):
            def predict_chunk(self, chunk, method="predict"):
                if chunk[0, 0] == X[100, 0]:
                    raise KeyError("chunk 1")
                time.sleep(0.05)
                served.append(chunk[0, 0])
                return model.predict_chunk(chunk, method=method)

        matrix = session.open(session.specs[FORMATS[fmt]]).matrix
        ring = ChunkBufferPool(buffers=8, chunk_rows=100, n_cols=X.shape[1],
                               dtype=matrix.dtype)
        with open_chunk_stream(matrix, chunk_rows=100, io_workers=2,
                               buffer_pool=ring, align_shards=False) as stream:
            with pytest.raises(KeyError, match="chunk 1"):
                FailsOnChunkOne().predict_streaming(stream, X.shape[0], workers=2)
            assert stream.pool.leases_served >= 2
        assert X[400, 0] not in served

    def test_two_buffer_ring_under_three_workers(self, session, models, problem):
        # A deliberately tiny ring forces reuse while chunks are in flight:
        # the workers must release every lease or the stream deadlocks.
        X, _ = problem
        model = models["logistic"]
        matrix = session.open(session.specs["shard"]).matrix
        ring = ChunkBufferPool(buffers=2, chunk_rows=100, n_cols=X.shape[1],
                               dtype=matrix.dtype)
        with open_chunk_stream(matrix, chunk_rows=100, align_shards=False,
                               io_workers=2, buffer_pool=ring) as stream:
            out = model.predict_streaming(stream, X.shape[0], workers=3)
            assert stream.pool.buffers == 2
            assert stream.pool.leases_served > 2  # the ring recycled
        assert np.array_equal(out, model.predict(np.asarray(X)))

    def test_inline_stream(self, session, models, problem):
        # prefetch=False: no thread, no ring, no hinter — the consumer reads.
        X, _ = problem
        model = models["logistic"]
        matrix = session.open(session.specs["mmap"]).matrix
        stream = open_chunk_stream(matrix, chunk_rows=100, prefetch=False)
        out = model.predict_streaming(stream, X.shape[0])
        assert (stream.depth, stream.io_workers, stream.pool) == (0, 0, None)
        assert stream.stats.prefetched is False
        assert stream.stats.chunks == 6 and stream.stats.io_wait_s == stream.stats.read_s
        assert np.array_equal(out, model.predict(np.asarray(X)))

    def test_inline_stream_fans_out_too(self, models, problem):
        X, _ = problem
        model = models["linear"]
        chunks = open_chunk_stream(X, chunk_rows=64, prefetch=False)
        out = model.predict_streaming(chunks, X.shape[0], workers=4)
        np.testing.assert_array_equal(out, model.predict(X))

    def test_invalid_worker_count_rejected(self, models):
        with pytest.raises(ValueError, match="workers"):
            models["linear"].predict_streaming(iter([]), 0, workers=0)

    def test_short_stream_rejected(self, models, problem):
        X, _ = problem
        chunks = open_chunk_stream(X[:100], chunk_rows=64, prefetch=False)
        with pytest.raises(ValueError, match="covered 100 of 600 rows"):
            models["linear"].predict_streaming(chunks, X.shape[0])
