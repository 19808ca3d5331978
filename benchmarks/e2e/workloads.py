"""The five end-to-end workloads: set-up, timed cycle, oracle, traced twin.

Each workload drives the real stack through its public entry points
(``Session``, ``StreamingEngine``, ``ShardAppender``, ``Trainer``, the
``m3 served`` daemon and ``NetClient``) with engine/CLI defaults unless the
workload says otherwise.  A *cycle* is one pass through the workload's timed
phases (one repeat, in ISSUE 12's words); the runner repeats cycles for the
requested seconds and reports the median of the per-cycle values (of the
pooled samples, for what a cycle measures many times: ``Workload.pooled``).  Every
output of every cycle is compared with an in-core oracle computed once per run.

Each workload measures the three end-to-end metrics ISSUE 12 names for it and
``slots`` says which ``BENCHMARK.json`` metric carries each one (README.md,
"The contract's metric names").

``traced`` re-executes the workload with the benchmark driving the layers one
call at a time (no executor threads, no sockets) inside spans, and is checked
by the same oracle — so the waterfall is known to describe the same
computation.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    CLASSES, SRC_DIR, Sizes, Tally, Tracer, fresh_dir, make_data, median, percentile,
)
from repro import Session
from repro.api import StreamingEngine, plan_chunks
from repro.api.sharded import ShardAppender, open_sharded_matrix, verify_dataset
from repro.ml import KMeans, SoftmaxRegression
from repro.ml.cluster.minibatch_kmeans import MiniBatchKMeans
from repro.ml.persistence import load_model, save_model
from repro.net import NetClient, protocol
from repro.serve import ModelRegistry, ModelServer, Trainer

REQUEST_TIMEOUT_S = 60.0
#: Windows of completions a pipelined phase's throughput is sampled over.
RATE_WINDOWS = 10

#: The three BENCHMARK.json metrics beside ``setup_s``.  The contract has every
#: workload report every end-to-end metric, so each is named after the three
#: ISSUE 12 metrics (scan family . append_tail . serve_net) it carries.
RATE_SLOT = "fit.ingest.serve_batch.rows_per_s"
SECOND_SLOT = "kmeans.publish.serve_req.per_s"
LATENCY_SLOT = "predict.append_commit.serve_rtt.ms_p50"

#: ISSUE 12's end-to-end metrics and the bound ``--compare`` reads each against.
NATIVE_BOUNDS = {
    "setup_s": 0.25,
    "fit_rows_per_s": 0.10, "kmeans_rows_per_s": 0.10, "predict_rows_per_s": 0.10,
    "ingest_rows_per_s": 0.10, "append_commit_ms_p50": 0.10, "publish_lag_ms_p50": 0.10,
    "serve_rtt_ms_p50": 0.10, "serve_req_per_s": 0.10, "serve_batch_rows_per_s": 0.10,
    # Not ISSUE 12's: the whole request script, which is what BENCHMARK.json gates.
    "serve_script_req_per_s": 0.10, "serve_script_rows_per_s": 0.10,
}


class Workload:
    """Base: a workload owns its scratch directory and its session."""

    name = ""
    #: BENCHMARK.json metric -> this workload's own metric that fills it
    slots: Dict[str, str] = {}
    #: A set-up of ~1 s is timed ``Sizes.setups`` times a run (the median is
    #: reported); one of several seconds once.
    cheap_setup = True
    #: Timed cycles per run at least; the runner adds cycles until
    #: ``--seconds`` have passed.
    repeats = 1

    def __init__(self, seed: int, sizes: Sizes, work: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.samples: Dict[str, List[float]] = {}   # pooled latency samples, for tails
        #: Metrics sampled many times a cycle (a pass, a window of completions):
        #: the run's value is the median of the samples of all cycles pooled.
        self.pooled: Dict[str, List[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self, tally: Tally) -> None:
        raise NotImplementedError

    def warm_up(self, tally: Tally) -> None:
        """Untimed, before the first timed set-up: touch the memory a set-up uses.

        The guest hands free memory back to its host, and the first touch of a
        page afterwards costs tens of microseconds: the same ``mmap_local``
        set-up takes 0.5 s in a process that has touched its 1.3 GB before and
        6-16 s in one that has not, depending on what ran on the box earlier.
        One whole untimed set-up leaves heap and page cache as a second one
        finds them.
        """
        self.setup()
        self.teardown(tally)

    def prepare_oracle(self) -> None:
        """Compute the in-core expectations (untimed, once per run)."""

    def break_oracle(self) -> None:
        """Perturb one expected prediction (``--break-oracle``): the run must fail."""
        raise NotImplementedError

    def cycle(self, tally: Tally) -> Dict[str, float]:
        raise NotImplementedError

    def traced(self, tracer: Tracer, tally: Tally) -> None:
        raise NotImplementedError


# -- scans --------------------------------------------------------------------


class _Scan(Workload):
    """Fit / cluster / predict over one stored copy of the generated rows."""

    def _models(self) -> Tuple[Any, Any]:
        raise NotImplementedError

    def _create(self, X: np.ndarray, y: np.ndarray) -> str:
        raise NotImplementedError

    engine: Any = None
    passes: Tuple[int, int, int] = (1, 1, 1)

    def setup(self) -> None:
        self.store = fresh_dir(self.work / "store")
        self.X, self.y = make_data(self.seed, self.sizes.rows)
        self.session = Session()
        self.spec = self._create(self.X, self.y)
        self.dataset = self.session.open(self.spec)
        # Warm-up: one predict pass touches every page / block once.
        warm = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024, seed=0)
        warm.partial_fit(self.X[:64], self.y[:64], classes=np.arange(CLASSES))
        self.session.predict(self.dataset, warm, engine=self.engine)

    def teardown(self, tally: Tally) -> None:
        self.session.close()
        # The next set-up starts as the first did: no arrays held, no files.
        self.X = self.y = self.dataset = None
        shutil.rmtree(self.store, ignore_errors=True)

    def cycle(self, tally: Tally) -> Dict[str, float]:
        rows = self.sizes.rows
        fit_passes, kmeans_passes, predict_passes = self.passes
        classifier, clusterer = self._models()

        began = time.perf_counter()
        fitted = self.session.fit(classifier, self.dataset, engine=self.engine)
        fit_s = time.perf_counter() - began
        began = time.perf_counter()
        clustered = self.session.fit(clusterer, self.dataset, engine=self.engine)
        kmeans_s = time.perf_counter() - began
        pass_s = []
        for _ in range(predict_passes):
            began = time.perf_counter()
            served = self.session.predict(self.dataset, fitted.model, engine=self.engine)
            pass_s.append(time.perf_counter() - began)
            tally.attempt()
            tally.check_equal(served.predictions, self.expected_labels,
                              f"{self.name}: predictions differ from in-core model.predict(X)")
        tally.attempt(2)
        self._check_models(fitted.model, clustered.model, tally)
        self.samples.setdefault("predict_pass_ms", []).extend(s * 1e3 for s in pass_s)
        # The same phase read as a latency, for the contract's ms slot.
        self.pooled.setdefault("predict_pass_ms_p50", []).extend(s * 1e3 for s in pass_s)
        return {
            "cycle_s": fit_s + kmeans_s + sum(pass_s),
            "fit_rows_per_s": rows * fit_passes / fit_s,
            "kmeans_rows_per_s": rows * kmeans_passes / kmeans_s,
            "predict_rows_per_s": rows * predict_passes / sum(pass_s),
        }

    def break_oracle(self) -> None:
        self.expected_labels[0] += 1

    def _check_models(self, classifier: Any, clusterer: Any, tally: Tally) -> None:
        tally.check_equal(classifier.coef_, self.expected_coef,
                          f"{self.name}: coef_ differs from the in-core fit")
        tally.check_equal(clusterer.cluster_centers_, self.expected_centers,
                          f"{self.name}: cluster centres differ from the oracle's")


class MmapLocal(_Scan):
    name = "mmap_local"
    slots = {RATE_SLOT: "fit_rows_per_s", SECOND_SLOT: "kmeans_rows_per_s",
             LATENCY_SLOT: "predict_pass_ms_p50"}
    engine = "local"
    repeats = 3   # a 3 s fit caught by one slow spell of the host must not set the run's value

    def __init__(self, seed: int, sizes: Sizes, work: Path) -> None:
        super().__init__(seed, sizes, work)
        self.passes = (10, 10, sizes.mmap_predict_passes)

    def _models(self) -> Tuple[Any, Any]:
        return (SoftmaxRegression(solver="lbfgs", max_iterations=10),
                # tolerance < 0: always the full 10 iterations, as the paper
                # times them — the work must not depend on the seed's data.
                KMeans(n_clusters=5, max_iterations=10, tolerance=-1.0, seed=0))

    def _create(self, X: np.ndarray, y: np.ndarray) -> str:
        return self.session.create(f"mmap://{self.store / 'data.m3'}", X, y)

    def prepare_oracle(self) -> None:
        # The transparency oracle: the same fits on an in-memory twin.
        classifier, clusterer = self._models()
        with Session() as session:
            twin = session.from_arrays(self.X, self.y, name="twin")
            classifier = session.fit(classifier, twin, engine="local").model
            clusterer = session.fit(clusterer, twin, engine="local").model
        self.expected_coef = classifier.coef_
        self.expected_centers = clusterer.cluster_centers_
        self.expected_labels = classifier.predict(self.X)

    def traced(self, tracer: Tracer, tally: Tally) -> None:
        classifier, clusterer = self._models()
        with tracer.span("workload"):
            with tracer.span("api.session.open"):
                dataset = self.session.open(self.spec)
            with tracer.span("api.dataset.arrays"):
                X, y = dataset.arrays()
            with tracer.span("ml.lbfgs.fit"):
                classifier.fit(X, y)
            with tracer.span("ml.kmeans.fit"):
                clusterer.fit(X)
            for index in range(self.passes[2]):
                with tracer.span("ml.predict", chunk=index):
                    labels = classifier.predict(X)
            with tracer.span("api.dataset.close"):
                dataset.close()
        tally.attempt(3)
        tally.check_equal(labels, self.expected_labels, "mmap_local traced: predictions")
        self._check_models(classifier, clusterer, tally)


class _ShardScan(_Scan):
    codec: Optional[str] = None

    @property
    def chunk_rows(self) -> int:
        # Chunks never straddle shards, so streamed and in-core SGD make the
        # same updates only when the chunk height divides the shard height.
        return min(1024, self.sizes.rows // self.sizes.shards)

    def _models(self) -> Tuple[Any, Any]:
        return (
            SoftmaxRegression(solver="sgd", max_iterations=self.passes[0],
                              chunk_size=self.chunk_rows, seed=0),
            MiniBatchKMeans(n_clusters=10, max_epochs=self.passes[1],
                            batch_size=self.chunk_rows, seed=0),
        )

    def _create(self, X: np.ndarray, y: np.ndarray) -> str:
        options = {"shard_rows": self.sizes.rows // self.sizes.shards}
        if self.codec is not None:
            options["codec"] = self.codec
        return self.session.create(f"shard://{self.store / 'shards'}", X, y, **options)

    def prepare_oracle(self) -> None:
        classifier, clusterer = self._models()
        classifier.fit(self.X, self.y)
        self.expected_coef = classifier.coef_
        self.expected_labels = classifier.predict(self.X)
        # MiniBatchKMeans seeds from the first *chunk* when streamed but from
        # the whole matrix in-core, so its oracle is the hand-driven stream.
        for _ in range(self.passes[1]):
            for start in range(0, self.sizes.rows, self.chunk_rows):
                clusterer.partial_fit(self.X[start:start + self.chunk_rows])
        self.expected_centers = clusterer.cluster_centers_

    def _read(self, tracer: Tracer, matrix: Any, buffer: np.ndarray,
              index: int, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def traced(self, tracer: Tracer, tally: Tally) -> None:
        classifier, clusterer = self._models()
        classes = np.arange(CLASSES)
        directory = self.spec.split("://", 1)[1]
        with tracer.span("workload"):
            with tracer.span("api.sharded.open"):
                matrix = open_sharded_matrix(directory)
                labels = matrix.lazy_labels
            with tracer.span("api.chunks.plan_chunks"):
                plan = plan_chunks(matrix, chunk_rows=self.chunk_rows)
            buffer = np.empty((plan.chunk_rows, plan.n_cols), dtype=np.float64)
            for _ in range(self.passes[0]):
                for index, (start, stop) in enumerate(plan.bounds):
                    X = self._read(tracer, matrix, buffer, index, start, stop)
                    with tracer.span("api.sharded.labels", chunk=index):
                        y = np.asarray(labels[start:stop])
                    with tracer.span("ml.partial_fit", chunk=index):
                        classifier.partial_fit(X, y, classes=classes)
            for _ in range(self.passes[1]):
                for index, (start, stop) in enumerate(plan.bounds):
                    X = self._read(tracer, matrix, buffer, index, start, stop)
                    with tracer.span("ml.kmeans_partial_fit", chunk=index):
                        clusterer.partial_fit(X)
            with tracer.span("ml.kmeans_finalize"):
                clusterer.finalize_streaming(matrix)
            for _ in range(self.passes[2]):
                out = np.empty(plan.n_rows, dtype=np.int64)
                for index, (start, stop) in enumerate(plan.bounds):
                    X = self._read(tracer, matrix, buffer, index, start, stop)
                    with tracer.span("ml.predict_chunk", chunk=index):
                        out[start:stop] = classifier.predict_chunk(X)
            with tracer.span("api.sharded.close"):
                matrix.close()
        tally.attempt(3)
        tally.check_equal(out, self.expected_labels, f"{self.name} traced: predictions")
        self._check_models(classifier, clusterer, tally)


class ScanRaw(_ShardScan):
    name = "scan_raw"
    slots = MmapLocal.slots
    codec = None
    repeats = 5   # ISSUE 12's R; an odd count, so the median is one cycle's value

    def __init__(self, seed: int, sizes: Sizes, work: Path) -> None:
        super().__init__(seed, sizes, work)
        self.engine = StreamingEngine()
        self.passes = sizes.scan_raw_passes

    def _read(self, tracer, matrix, buffer, index, start, stop):
        with tracer.span("api.sharded.read_view", chunk=index):
            return matrix[start:stop]


class ScanZlib(_ShardScan):
    name = "scan_zlib"
    slots = MmapLocal.slots
    codec = "zlib"
    cheap_setup = False   # compressing 411 MB takes ~5 s

    def warm_up(self, tally: Tally) -> None:
        # Nearly all the memory this set-up touches is the generated matrix
        # (the shards it writes are 15x smaller): generating it once is enough.
        make_data(self.seed, self.sizes.rows)

    def __init__(self, seed: int, sizes: Sizes, work: Path) -> None:
        super().__init__(seed, sizes, work)
        self.engine = StreamingEngine(io_workers=2, compute_workers=2)
        self.passes = sizes.scan_zlib_passes

    def _read(self, tracer, matrix, buffer, index, start, stop):
        with tracer.span("api.sharded.fetch_compressed", chunk=index):
            fetched = matrix.fetch_compressed(start, stop)
        with tracer.span("api.sharded.decode_into", chunk=index):
            return matrix.decode_into(fetched, buffer)


# -- appends beside reads -----------------------------------------------------


class AppendTail(Workload):
    name = "append_tail"
    slots = {RATE_SLOT: "ingest_rows_per_s", SECOND_SLOT: "publishes_per_s",
             LATENCY_SLOT: "append_commit_ms_p50"}
    model_name = "tail"
    label_shift = 0

    def break_oracle(self) -> None:
        self.label_shift = 1

    def setup(self) -> None:
        sizes = self.sizes
        total = sizes.append_base_rows + sizes.appends * sizes.append_rows
        self.X, self.y = make_data(self.seed, total)
        self.session = Session()
        self._build()

    def _build(self) -> None:
        """A fresh base dataset with a trainer caught up to it (generation 0)."""
        base = self.sizes.append_base_rows
        self.directory = fresh_dir(self.work / "tail")
        self.spec = self.session.create(
            f"shard://{self.directory}", self.X[:base], self.y[:base],
            shard_rows=base, codec="zlib",
        )
        self.registry = ModelRegistry()
        self.trainer = Trainer(
            self.spec,
            SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024, seed=0),
            registry=self.registry, name=self.model_name,
            session=self.session, classes=np.arange(CLASSES),
        )
        self.trainer.poll_once()
        self.appender = ShardAppender(self.directory, shard_rows=base)
        self.built = True

    def teardown(self, tally: Tally) -> None:
        self.trainer.close()
        self.session.close()
        self.X = self.y = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def _batches(self) -> List[Tuple[int, int]]:
        base, step = self.sizes.append_base_rows, self.sizes.append_rows
        return [(base + i * step, base + (i + 1) * step) for i in range(self.sizes.appends)]

    def cycle(self, tally: Tally) -> Dict[str, float]:
        if not self.built:
            self.trainer.close()
            self._build()
        self.built = False
        step = self.sizes.append_rows
        commit_s, lag_s = [], []
        loop_began = time.perf_counter()
        for index, (start, stop) in enumerate(self._batches()):
            began = time.perf_counter()
            self.appender.append(self.X[start:stop], self.y[start:stop])
            committed = time.perf_counter()
            update = self.trainer.poll_once()
            version = self.registry.resolve(self.model_name)
            resolved = time.perf_counter()
            commit_s.append(committed - began)
            lag_s.append(resolved - committed)
            tally.attempt()
            tally.check(
                update is not None and update.rows == step
                and update.generation == index + 1 and version.version == index + 2,
                f"append_tail: append {index} did not publish generation {index + 1}",
            )
        loop_s = time.perf_counter() - loop_began
        self._check_grown(version.model, tally)
        self.samples.setdefault("append_commit_ms", []).extend(s * 1e3 for s in commit_s)
        self.samples.setdefault("publish_lag_ms", []).extend(s * 1e3 for s in lag_s)
        return {
            "cycle_s": loop_s,
            "ingest_rows_per_s": self.sizes.appends * step / loop_s,
            "append_commit_ms_p50": median(commit_s) * 1e3,
            "publish_lag_ms_p50": median(lag_s) * 1e3,
            # The same lag read as a rate, for the contract's higher-is-better slot.
            "publishes_per_s": 1.0 / median(lag_s),
        }

    def _check_grown(self, model: Any, tally: Tally) -> None:
        """The grown dataset verifies clean and predicts as in-core on all rows."""
        problems = verify_dataset(self.directory)
        tally.attempt()
        tally.check(problems == [], f"append_tail: verify_dataset reported {problems[:2]}")
        with self.session.open(self.spec) as grown:
            shape, generation = grown.shape, grown.generation
            served = self.session.predict(grown, model, engine=StreamingEngine())
        tally.attempt()
        tally.check(shape == self.X.shape and generation == self.sizes.appends,
                    f"append_tail: grown dataset is {shape} at generation {generation}")
        expected = model.predict(self.X)
        expected[0] += self.label_shift
        tally.check_equal(served.predictions, expected,
                          "append_tail: grown-dataset predictions differ from in-core")

    def traced(self, tracer: Tracer, tally: Tally) -> None:
        """The same loop with the trainer's poll driven by hand, layer by layer."""
        self.trainer.close()
        self._build()
        self.built = False
        base = self.sizes.append_base_rows
        classes = np.arange(CLASSES)
        model = self.trainer.model        # already trained on the base rows
        registry = ModelRegistry()
        trained = base
        with tracer.span("workload"):
            for index, (start, stop) in enumerate(self._batches()):
                with tracer.span("api.sharded.append", request=index):
                    self.appender.append(self.X[start:stop], self.y[start:stop])
                with tracer.span("api.session.open", request=index):
                    snapshot = self.session.open(self.spec)
                with tracer.span("api.chunks.plan_chunks", request=index):
                    plan = plan_chunks(snapshot.matrix, row_range=(trained, snapshot.shape[0]))
                labels = snapshot.labels
                for low, high in plan.bounds:
                    with tracer.span("api.sharded.gather", request=index):
                        X = np.asarray(snapshot.matrix[low:high])
                        y = np.asarray(labels[low:high])
                    with tracer.span("ml.partial_fit", request=index):
                        model.partial_fit(X, y, classes=classes)
                trained = snapshot.shape[0]
                with tracer.span("api.dataset.close", request=index):
                    snapshot.close()
                with tracer.span("serve.trainer.snapshot_model", request=index):
                    frozen = copy.deepcopy(model)
                with tracer.span("serve.registry.publish", request=index):
                    registry.publish(self.model_name, frozen)
                with tracer.span("serve.registry.resolve", request=index):
                    version = registry.resolve(self.model_name)
                tally.attempt()
                tally.check(version.version == index + 1 and trained == stop,
                            f"append_tail traced: append {index} out of step")
        self._check_grown(version.model, tally)


# -- serving over the wire ----------------------------------------------------


class Daemon:
    """``python -m repro served`` as a subprocess (its own interpreter lock)."""

    def __init__(self, model_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "served", "--model", str(model_path),
             "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        )
        banner = self.proc.stderr.readline()
        match = re.search(r" on ([0-9.]+):([0-9]+) ", banner)
        if match is None:
            self.proc.kill()
            rest = self.proc.communicate()[1]
            raise RuntimeError(f"m3 served did not start: {banner}{rest}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> Tuple[int, Optional[int], Optional[int]]:
        """SIGTERM, wait; (exit code, requests, responses) from the exit banner."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            stderr = self.proc.communicate(timeout=30)[1]
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stderr = self.proc.communicate()[1]
        match = re.search(r"([0-9]+) requests, ([0-9]+) responses", stderr)
        requests, responses = (int(match.group(1)), int(match.group(2))) if match else (None, None)
        return self.proc.returncode, requests, responses


def pipelined(client: Any, requests: Sequence[Any], window: int) -> Tuple[List[Any], List[float]]:
    """Send ``requests`` through ``client.submit`` (a ``NetClient`` or a
    ``ModelServer``) keeping ``window`` outstanding.

    Returns the results in order and ``len(requests) + 1`` clock readings: the
    start, then the moment each result was in hand.
    """
    pending: deque = deque()
    results = []
    stamps = [time.perf_counter()]

    def collect() -> None:
        results.append(pending.popleft().result(timeout=REQUEST_TIMEOUT_S))
        stamps.append(time.perf_counter())

    for rows in requests:
        if len(pending) >= window:
            collect()
        pending.append(client.submit(rows))
    while pending:
        collect()
    return results, stamps


def window_rates(stamps: Sequence[float], units_per_request: int) -> List[float]:
    """Units per second over each tenth of a pipelined phase's completions.

    The box's spells of hundreds of milliseconds are longer than one such
    window and shorter than a phase, so the median window of a run moves half
    as much from run to run as the median whole phase does.
    """
    step = max(1, (len(stamps) - 1) // RATE_WINDOWS)
    edges = stamps[::step]
    return [step * units_per_request / (stop - start) for start, stop in zip(edges, edges[1:])]


class ServeNet(Workload):
    name = "serve_net"
    # The pipelined phases' own rates move by 15-30 % between identical runs on
    # this box (two processes and four busy threads handing off on two vCPUs), the
    # request script as a whole by a third of that: the contract's metrics are
    # the script's, serve_req_per_s / serve_batch_rows_per_s are printed beside.
    slots = {RATE_SLOT: "serve_script_rows_per_s", SECOND_SLOT: "serve_script_req_per_s",
             LATENCY_SLOT: "serve_rtt_ms_p50"}
    repeats = 3   # of ISSUE 12's R = 5: what the time cap leaves; 3000 round trips a run

    def setup(self) -> None:
        sizes = self.sizes
        self.X, self.y = make_data(self.seed, sizes.serve_train_rows)
        model = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=256, seed=0)
        model.fit(self.X, self.y)
        self.model_path = self.work / "model.json"
        save_model(self.model_path, model)
        self.daemon = Daemon(self.model_path)
        self.sent = 0
        self.versions = set()
        try:
            self.client = NetClient(self.daemon.host, self.daemon.port)
            for index in range(sizes.serve_warmup):
                self._record(self.client.predict_one(self.X[index % len(self.X)]))
        except BaseException:
            self.daemon.stop()
            raise

    def _record(self, result: Any) -> None:
        self.sent += 1
        self.versions.add(result.model_key)

    def prepare_oracle(self) -> None:
        # What the daemon loaded is what save_model wrote, not the live object.
        self.model = load_model(self.model_path)
        self.expected = self.model.predict(self.X)

    def break_oracle(self) -> None:
        self.expected[0] += 1

    def teardown(self, tally: Tally) -> None:
        self.client.close()
        code, requests, responses = self.daemon.stop()
        tally.attempt()
        tally.check(code == 0 and requests == responses == self.sent,
                    f"serve_net: daemon exit {code}, {requests} requests / {responses} "
                    f"responses for {self.sent} sent")
        tally.check(len(self.versions) == 1,
                    f"serve_net: responses named versions {sorted(self.versions)}")

    def _rows(self, count: int, per_request: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        n = len(self.X)
        starts = [(i * per_request) % (n - per_request + 1) for i in range(count)]
        if per_request == 1:
            return [self.X[s] for s in starts], [self.expected[s:s + 1] for s in starts]
        return ([self.X[s:s + per_request] for s in starts],
                [self.expected[s:s + per_request] for s in starts])

    def _check(self, results: Sequence[Any], expected: Sequence[np.ndarray],
               tally: Tally, phase: str) -> None:
        for result, want in zip(results, expected):
            self._record(result)
            tally.attempt()
            tally.check_equal(result.predictions, want, f"serve_net {phase}: wrong prediction")

    def cycle(self, tally: Tally) -> Dict[str, float]:
        sizes = self.sizes
        cycle_began = time.perf_counter()
        requests, expected = self._rows(sizes.serve_single, 1)
        rtt_s, results = [], []
        for row in requests:
            began = time.perf_counter()
            results.append(self.client.predict_one(row, timeout_s=REQUEST_TIMEOUT_S))
            rtt_s.append(time.perf_counter() - began)
        self._check(results, expected, tally, "single")

        window, count = sizes.serve_window
        requests, expected = self._rows(count, 1)
        results, window_stamps = pipelined(self.client, requests, window)
        self._check(results, expected, tally, f"window {window}")

        outstanding, batches, per_request = sizes.serve_batch
        requests, expected = self._rows(batches, per_request)
        results, batch_stamps = pipelined(self.client, requests, outstanding)
        self._check(results, expected, tally, f"{per_request}-row")
        cycle_s = time.perf_counter() - cycle_began

        single_s = sum(rtt_s) + window_stamps[-1] - window_stamps[0]
        script_s = single_s + batch_stamps[-1] - batch_stamps[0]
        self.samples.setdefault("serve_rtt_ms", []).extend(s * 1e3 for s in rtt_s)
        self.pooled.setdefault("serve_rtt_ms_p50", []).extend(s * 1e3 for s in rtt_s)
        self.pooled.setdefault("serve_req_per_s", []).extend(window_rates(window_stamps, 1))
        self.pooled.setdefault("serve_batch_rows_per_s", []).extend(
            window_rates(batch_stamps, per_request))
        return {
            "cycle_s": cycle_s,
            "serve_rtt_ms_p99": percentile(rtt_s, 99) * 1e3,
            # The request script as a whole (checks between phases left out).
            "serve_script_req_per_s": (len(rtt_s) + count) / single_s,
            "serve_script_rows_per_s": (len(rtt_s) + count + batches * per_request) / script_s,
        }

    def traced(self, tracer: Tracer, tally: Tally) -> None:
        """The request path without sockets: codec -> ModelServer -> codec."""
        sizes = self.sizes
        registry = ModelRegistry()
        registry.publish("default", self.model_path)
        server = ModelServer(registry=registry)
        phases = [self._rows(sizes.serve_single, 1), self._rows(sizes.serve_window[1], 1),
                  self._rows(sizes.serve_batch[1], sizes.serve_batch[2])]
        request_id = 0
        decoded: List[np.ndarray] = []
        try:
            with tracer.span("workload"):
                for requests, expected in phases:
                    for rows, want in zip(requests, expected):
                        with tracer.span("net.protocol.encode_request", request=request_id):
                            line = protocol.encode_request(rows)
                        with tracer.span("net.protocol.parse_request_line", request=request_id):
                            request = protocol.parse_request_line(line)
                        with tracer.span("serve.server.submit", request=request_id):
                            result = server.submit(
                                request.rows, method=request.method, model=request.model
                            ).result(timeout=REQUEST_TIMEOUT_S)
                        with tracer.span("net.protocol.response_record", request=request_id):
                            record = protocol.response_record(result, request.id)
                        with tracer.span("net.protocol.encode_record", request=request_id):
                            body = protocol.encode_record(record)
                        with tracer.span("net.client.decode", request=request_id):
                            decoded.append(np.asarray(json.loads(body)["predictions"]))
                        request_id += 1
        finally:
            server.close()
        # Checked outside the spans: the oracle is not part of the waterfall.
        wanted = [want for _requests, expected in phases for want in expected]
        for got, want in zip(decoded, wanted):
            tally.attempt()
            tally.check_equal(got, want, "serve_net traced: wrong prediction")


WORKLOADS = {cls.name: cls for cls in (MmapLocal, ScanRaw, ScanZlib, AppendTail, ServeNet)}
