"""Tests for the streaming execution engine.

The acceptance bar of the streaming refactor: ``session.fit(model, ds,
engine="streaming")`` trains SGD logistic regression, mini-batch k-means and
naive Bayes on every storage backend, produces models equivalent to
``engine="local"``, and reports per-chunk prefetch / I/O-wait accounting in
``FitResult.details``.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.analysis.runtime import LEASES
from repro.api import Session, StreamingEngine, open_chunk_stream, plan_chunks, resolve_engine
from repro.api.sharded import ShardedLabels, ShardedMatrix
from repro.ml import (
    GaussianNaiveBayes,
    KMeans,
    LogisticRegression,
    MiniBatchKMeans,
    SoftmaxRegression,
)
from repro.ml import base
from repro.ml.cluster import _kernel
from repro.vmem.trace import reader_log_trace
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator

BACKENDS = ["memory", "mmap", "shard"]
SHARD_ROWS = 128
CHUNK = 64  # divides SHARD_ROWS, so shard alignment preserves batch bounds


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(600, 12))
    true_coef = rng.normal(size=12)
    y = (X @ true_coef + 0.1 * rng.normal(size=600) > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module")
def session(tmp_path_factory, problem):
    X, y = problem
    tmp_path = tmp_path_factory.mktemp("streaming_engine")
    with Session() as session:
        specs = {
            "memory": "memory://train",
            "mmap": f"mmap://{tmp_path}/train.m3",
            "shard": f"shard://{tmp_path}/train_shards",
        }
        session.create(specs["memory"], X, y)
        session.create(specs["mmap"], X, y)
        session.create(specs["shard"], X, y, shard_rows=SHARD_ROWS)
        session.specs = specs
        yield session


class TestEquivalenceWithLocal:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sgd_logistic_regression_matches_local(self, session, backend):
        args = dict(max_iterations=6, solver="sgd", chunk_size=CHUNK)
        local = session.fit(
            LogisticRegression(**args), session.open(session.specs[backend])
        ).model
        streamed = session.fit(
            LogisticRegression(**args),
            session.open(session.specs[backend]),
            engine="streaming",
        ).model
        # Chunk bounds equal SGD batch bounds, so the update sequences are
        # identical and the models must agree to float precision.
        np.testing.assert_allclose(streamed.coef_, local.coef_, rtol=0, atol=1e-12)
        assert abs(streamed.intercept_ - local.intercept_) < 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_naive_bayes_matches_local(self, session, backend):
        local = session.fit(
            GaussianNaiveBayes(chunk_size=CHUNK), session.open(session.specs[backend])
        ).model
        streamed = session.fit(
            GaussianNaiveBayes(chunk_size=CHUNK),
            session.open(session.specs[backend]),
            engine="streaming",
        ).model
        np.testing.assert_allclose(streamed.theta_, local.theta_, atol=1e-12)
        np.testing.assert_allclose(streamed.var_, local.var_, atol=1e-12)
        np.testing.assert_allclose(streamed.class_prior_, local.class_prior_, atol=1e-15)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_minibatch_kmeans_equivalent_quality(self, session, backend):
        args = dict(n_clusters=4, max_epochs=4, batch_size=CHUNK, seed=0)
        local = session.fit(
            MiniBatchKMeans(**args), session.open(session.specs[backend])
        ).model
        streamed = session.fit(
            MiniBatchKMeans(**args),
            session.open(session.specs[backend]),
            engine="streaming",
        ).model
        assert streamed.cluster_centers_.shape == local.cluster_centers_.shape
        assert np.isfinite(streamed.inertia_)
        # Initialisation differs (full-matrix vs first-chunk k-means++), so
        # demand equivalent clustering quality rather than equal centroids.
        assert streamed.inertia_ <= 1.5 * local.inertia_

    @pytest.mark.parametrize("compute_workers", [1, 2])
    @pytest.mark.parametrize("io_workers", [1, 2])
    @pytest.mark.parametrize(
        "scheme, options",
        [
            ("mmap", {}),
            ("shard", {"shard_rows": SHARD_ROWS}),
            ("shard", {"shard_rows": SHARD_ROWS, "codec": "zlib"}),
        ],
        ids=["mmap", "shard-raw", "shard-zlib"],
    )
    def test_minibatch_kmeans_equals_hand_driven_partial_fit(
        self, problem, tmp_path, scheme, options, io_workers, compute_workers
    ):
        # What benchmarks/e2e checks at full size: whatever the format, the
        # reader count or the compute count, the streamed fit makes exactly the
        # updates partial_fit makes when driven by hand over the same chunks.
        X, y = problem
        args = dict(n_clusters=4, max_epochs=2, batch_size=CHUNK, seed=0)
        spec = f"{scheme}://{tmp_path}/train"
        with Session() as session:
            session.create(spec, X, y, **options)
            dataset = session.open(spec)
            streamed = session.fit(
                MiniBatchKMeans(**args), dataset,
                engine=StreamingEngine(io_workers=io_workers, compute_workers=compute_workers),
            ).model
            bounds = plan_chunks(dataset.matrix, chunk_rows=CHUNK).bounds
        by_hand = MiniBatchKMeans(**args)
        for _ in range(args["max_epochs"]):
            for start, stop in bounds:
                by_hand.partial_fit(X[start:stop])
        assert np.array_equal(streamed.cluster_centers_, by_hand.cluster_centers_)
        assert np.array_equal(streamed.counts_, by_hand.counts_)
        # inertia_ is a last pass over the fit's own stream; with shard heights
        # a multiple of batch_size it sums the in-core chunks, bit for bit.
        assert streamed.inertia_ == by_hand.inertia(X)

    def test_softmax_sgd_matches_local(self, session, problem):
        X, _ = problem
        y4 = (np.arange(X.shape[0]) % 4).astype(np.int64)
        args = dict(max_iterations=4, solver="sgd", chunk_size=CHUNK)
        local = session.fit(
            SoftmaxRegression(**args), session.open(session.specs["mmap"]), y=y4
        ).model
        streamed = session.fit(
            SoftmaxRegression(**args),
            session.open(session.specs["mmap"]),
            y=y4,
            engine="streaming",
        ).model
        np.testing.assert_allclose(streamed.coef_, local.coef_, rtol=0, atol=1e-12)


class TestFinalizePass:
    """MiniBatchKMeans' inertia_ pass reads through the fit's own chunk stream."""

    @pytest.fixture(autouse=True)
    def two_compute_threads(self, monkeypatch):
        # The source fan-out runs on a pool whatever the runner's BLAS setting.
        monkeypatch.setattr(base, "_compute_threads", lambda: 2)

    @staticmethod
    def fit(tmp_path, X, y, codec, batch_size, **engine):
        spec = f"shard://{tmp_path}/train"
        with Session() as session:
            session.create(spec, X, y, shard_rows=SHARD_ROWS, codec=codec)
            dataset = session.open(spec)
            result = session.fit(
                MiniBatchKMeans(n_clusters=4, max_epochs=2, batch_size=batch_size, seed=0),
                dataset,
                engine=StreamingEngine(**engine),
            )
            bounds = plan_chunks(dataset.matrix, chunk_rows=batch_size).bounds
        return result, bounds

    @pytest.mark.parametrize("compute_workers", [1, 2])
    @pytest.mark.parametrize("io_workers", [1, 2])
    @pytest.mark.parametrize("codec", [None, "zlib"], ids=["raw", "zlib"])
    def test_inertia_sums_the_plan_chunks(
        self, problem, tmp_path, codec, io_workers, compute_workers
    ):
        X, y = problem
        batch_size = 48  # does not divide SHARD_ROWS: shard cuts make short chunks
        result, bounds = self.fit(
            tmp_path, X, y, codec, batch_size,
            io_workers=io_workers, compute_workers=compute_workers,
        )
        assert any(stop - start < batch_size for start, stop in bounds[:-1])
        model = result.model
        by_chunk = 0.0
        for start, stop in bounds:
            by_chunk += model.inertia(X[start:stop])
        assert model.inertia_ == by_chunk

    @pytest.mark.parametrize("compute_workers", [1, 2])
    @pytest.mark.parametrize("io_workers", [1, 2])
    def test_zlib_pass_decodes_off_the_calling_thread(
        self, problem, tmp_path, monkeypatch, io_workers, compute_workers
    ):
        X, y = problem
        caller = threading.get_ident()
        calls = []

        def spy(name):
            real = getattr(ShardedMatrix, name)

            def call(self, *args):
                calls.append((name, threading.get_ident()))
                return real(self, *args)

            return call

        for name in ("__getitem__", "gather_into"):
            monkeypatch.setattr(ShardedMatrix, name, spy(name))
        result, _ = self.fit(
            tmp_path, X, y, "zlib", CHUNK,
            io_workers=io_workers, compute_workers=compute_workers,
        )
        # No pass of the fit, the inertia pass included, reads on this thread.
        assert [name for name, thread in calls if thread == caller] == []
        assert result.details["passes"] == 3
        assert result.model.inertia_ == result.model.inertia(X)

    @pytest.mark.parametrize("compute_threads", [1, 2])
    @pytest.mark.parametrize("codec", [None, "zlib"], ids=["raw", "zlib"])
    def test_kernel_failure_propagates_and_returns_every_lease(
        self, problem, tmp_path, monkeypatch, codec, compute_threads
    ):
        monkeypatch.setattr(base, "_compute_threads", lambda: compute_threads)
        X, y = problem
        failure = ArithmeticError("chunk kernel failed")
        real_map = _kernel.map_row_chunks

        def failing_map(source, chunk_size, fn):
            calls = itertools.count()

            def kernel(start, stop, chunk):
                if next(calls) == 2:  # the third chunk, on whichever worker
                    raise failure
                return fn(start, stop, chunk)

            return real_map(source, chunk_size, kernel)

        monkeypatch.setattr(_kernel, "map_row_chunks", failing_map)
        with pytest.raises(ArithmeticError) as raised:
            self.fit(tmp_path, X, y, codec, CHUNK, io_workers=2, compute_workers=2)
        assert raised.value is failure
        assert LEASES.outstanding() == []


class TestStreamingDetails:
    def test_details_report_chunk_pipeline_accounting(self, session):
        result = session.fit(
            LogisticRegression(max_iterations=3, solver="sgd", chunk_size=CHUNK),
            session.open(session.specs["shard"]),
            engine="streaming",
        )
        details = result.details
        assert result.engine == "streaming"
        assert details["passes"] == 3
        assert details["chunks"] == details["chunks_per_pass"] * details["passes"]
        assert details["rows"] == 600 * 3
        assert details["bytes_read"] == 600 * 12 * 8 * 3
        assert details["shard_aligned"] is True
        assert details["prefetch_depth"] == 2
        assert details["io_workers"] == 1
        for key in ("read_s", "io_wait_s", "compute_s", "io_overlap"):
            assert details[key] >= 0.0
        assert len(details["per_chunk"]) == details["chunks"]
        assert set(details["per_chunk"][0]) == {"read_s", "io_wait_s", "compute_s"}

    def test_details_count_the_minibatch_inertia_pass(self, session):
        result = session.fit(
            MiniBatchKMeans(n_clusters=4, max_epochs=3, batch_size=CHUNK, seed=0),
            session.open(session.specs["shard"]),
            engine="streaming",
        )
        details = result.details
        # Three epochs, then the inertia_ pass through the same stream.
        assert details["passes"] == 4
        assert details["chunks"] == details["chunks_per_pass"] * details["passes"]
        assert details["rows"] == 600 * 4
        assert details["bytes_read"] == 600 * 12 * 8 * 4
        assert sum(r["chunks"] for r in details["readers"]) == details["chunks"]
        assert sum(r["bytes_read"] for r in details["readers"]) == details["bytes_read"]
        assert sum(len(log) for log in details["reader_log"]) == details["chunks"]
        assert len(details["per_chunk"]) == details["chunks"]

    def test_inline_stream_trains_the_same_model(self, session, problem):
        # No engine option turns the reader thread off; an inline stream is
        # open_chunk_stream(prefetch=False), and it feeds the same loop.
        _, y = problem
        dataset = session.open(session.specs["mmap"])
        streams = []

        def make_stream():
            stream = open_chunk_stream(
                dataset.matrix, labels=dataset.labels, chunk_rows=100, prefetch=False
            )
            streams.append(stream)
            return ((chunk.X, chunk.y) for chunk in stream)

        inline = GaussianNaiveBayes().fit_streaming(make_stream, classes=np.unique(y))
        engine = session.fit(
            GaussianNaiveBayes(), dataset, engine=StreamingEngine(chunk_rows=100)
        )
        (stream,) = streams
        assert (stream.depth, stream.io_workers, stream.pool) == (0, 0, None)
        assert stream.stats.prefetched is False
        assert stream.plan.chunk_rows == engine.details["chunk_rows"] == 100
        assert engine.details["prefetched"] is True
        assert np.array_equal(inline.theta_, engine.model.theta_)
        assert np.array_equal(inline.var_, engine.model.var_)

    def test_trace_recorded_when_requested(self, session):
        dataset = session.open(session.specs["mmap"], record_trace=True)
        result = session.fit(
            GaussianNaiveBayes(chunk_size=CHUNK), dataset, engine="streaming"
        )
        assert result.trace is not None
        assert len(result.trace) > 0 and result.trace.total_bytes > 0


class TestStreamingProtocol:
    def test_resolves_by_name(self):
        assert isinstance(resolve_engine("streaming"), StreamingEngine)

    def test_rejects_non_streaming_models(self, session):
        with pytest.raises(TypeError, match="chunk-streaming"):
            session.fit(
                KMeans(n_clusters=3),
                session.open(session.specs["memory"]),
                engine="streaming",
            )

    def test_lbfgs_logistic_regression_rejected(self, session):
        with pytest.raises(ValueError, match="solver='sgd'"):
            session.fit(
                LogisticRegression(solver="lbfgs"),
                session.open(session.specs["memory"]),
                engine="streaming",
            )

    def test_window_is_not_an_option(self):
        # The reorder window follows the reader count; it is reported, not set.
        with pytest.raises(TypeError, match="prefetch_depth"):
            StreamingEngine(prefetch_depth=3)


class TestLazyLabels:
    """Fresh sessions per test, each dataset opened afresh."""

    @pytest.fixture()
    def shard_spec(self, tmp_path, problem):
        X, y = problem
        with Session() as setup:
            spec = f"shard://{tmp_path}/lazy_shards"
            setup.create(spec, X, y, shard_rows=SHARD_ROWS)
        return spec

    def test_sharded_labels_stay_lazy_through_streaming(self, shard_spec):
        with Session() as fresh:
            dataset = fresh.open(shard_spec)
            labels = dataset.labels
            assert isinstance(labels, ShardedLabels)
            assert not labels.is_materialized
            fresh.fit(GaussianNaiveBayes(chunk_size=CHUNK), dataset, engine="streaming")
            # The engine sliced labels per chunk and computed classes per
            # shard; it never needed the stitched vector.
            assert not labels.is_materialized

    def test_local_engine_still_materialises_lazily(self, shard_spec):
        with Session() as fresh:
            dataset = fresh.open(shard_spec)
            labels = dataset.labels
            assert not labels.is_materialized
            fresh.fit(GaussianNaiveBayes(chunk_size=CHUNK), dataset)
            assert labels.is_materialized


class TestParallelPipeline:
    """The multi-reader pipeline is a drop-in upgrade: same models, new knobs."""

    @pytest.mark.parametrize("io_workers", [1, 2, 4])
    def test_parallel_fit_matches_single_reader(self, session, io_workers):
        args = dict(max_iterations=5, solver="sgd", chunk_size=CHUNK)
        single = session.fit(
            LogisticRegression(**args),
            session.open(session.specs["shard"]),
            engine="streaming",
        ).model
        parallel = session.fit(
            LogisticRegression(**args),
            session.open(session.specs["shard"]),
            engine=StreamingEngine(io_workers=io_workers),
        ).model
        # Plan-order re-emission means the update sequence is identical.
        np.testing.assert_array_equal(parallel.coef_, single.coef_)
        assert parallel.intercept_ == single.intercept_

    def test_parallel_details_report_reader_accounting(self, session):
        result = session.fit(
            GaussianNaiveBayes(chunk_size=CHUNK),
            session.open(session.specs["shard"]),
            engine=StreamingEngine(io_workers=3),
        )
        details = result.details
        assert details["io_workers"] == 3
        assert len(details["readers"]) == 3
        assert sum(r["chunks"] for r in details["readers"]) == details["chunks"]
        assert sum(r["rows"] for r in details["readers"]) == details["rows"]
        assert details["hints_applied"] >= 0
        # The default engine reports the count it resolved, never None.
        assert details["compute_workers"] == base.compute_threads()
        # The multi-reader schedule is recorded for simulator replay.
        assert sum(len(log) for log in details["reader_log"]) == details["chunks"]

    def test_engine_validates_parallel_knobs(self):
        with pytest.raises(ValueError, match="io_workers"):
            StreamingEngine(io_workers=-1)
        with pytest.raises(ValueError, match="compute_workers"):
            StreamingEngine(compute_workers=0)

    def test_default_compute_workers_follow_the_compute_thread_rule(self, monkeypatch):
        monkeypatch.setattr(base, "available_cpus", lambda: 2)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert StreamingEngine().compute_workers == 2
        # An explicit count overrides the rule.
        assert StreamingEngine(compute_workers=1).compute_workers == 1
        # BLAS unpinned takes both CPUs, so the serial loop is kept.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert StreamingEngine().compute_workers == 1
        with pytest.raises(ValueError, match="compute_workers"):
            StreamingEngine(compute_workers=0)


class TestMultiReaderReplay:
    """A reader pool's schedule, as a trace, replays at paper scale."""

    def test_replay_reader_log_runs_the_simulator(self, session):
        result = session.fit(
            GaussianNaiveBayes(chunk_size=CHUNK),
            session.open(session.specs["shard"]),
            engine=StreamingEngine(io_workers=2),
        )
        dataset = session.open(session.specs["shard"])
        plan = plan_chunks(dataset.matrix, chunk_rows=CHUNK)
        simulation = VirtualMemorySimulator(VirtualMemoryConfig()).run_trace(
            reader_log_trace(result.details["reader_log"], plan.row_bytes)
        )
        assert simulation.wall_time_s > 0
        assert simulation.io_stats.bytes_read > 0

    def test_replay_compares_readahead_policies(self, session):
        # The point of the replay: compare the engine-level multi-reader
        # schedule under different kernel readahead policies.
        from repro.vmem import PipelinedReadAhead, NoReadAhead

        dataset = session.open(session.specs["shard"])
        plan = plan_chunks(dataset.matrix, chunk_rows=CHUNK)
        log = [[bound for i, bound in enumerate(plan.bounds) if i % 2 == r] for r in range(2)]
        trace = reader_log_trace(log, plan.row_bytes)
        blind = VirtualMemorySimulator(
            VirtualMemoryConfig(readahead=NoReadAhead())
        ).run_trace(trace)
        pipelined = VirtualMemorySimulator(
            VirtualMemoryConfig(readahead=PipelinedReadAhead(readers=2, window=8))
        ).run_trace(trace)
        assert pipelined.io_stats.read_requests <= blind.io_stats.read_requests
