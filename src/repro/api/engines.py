"""Pluggable execution engines behind :meth:`repro.api.Session.fit`.

An :class:`ExecutionEngine` takes an unmodified estimator and a
:class:`~repro.api.Dataset` and decides *how* the training runs:

``local``
    Train in-process on the dataset's (possibly memory-mapped) matrix — the
    paper's M3 execution model.
``streaming``
    Train through the chunk pipeline of :mod:`repro.api.chunks`: the model's
    ``partial_fit`` consumes shard-aligned row blocks while a background
    thread prefetches the next block, and the per-chunk read / I/O-wait /
    compute times land in ``FitResult.details`` so the overlap is measurable.

Every engine also serves the *inference* half of the lifecycle through
:meth:`ExecutionEngine.predict`: ``local`` predicts in-core, and
``streaming`` drives the model's per-chunk prediction hooks
(:class:`~repro.ml.base.StreamingPredictor`) through the prefetching chunk
pipeline into a preallocated output buffer.

Every engine returns a :class:`FitResult` from training and a
:class:`PredictResult` from inference, each carrying the engine-specific
accounting, so callers can switch engines without changing how they consume
results.  Either engine carries the access trace of a dataset opened with
``record_trace=True``; replaying it at paper scale is
``VirtualMemorySimulator(config).run_trace(result.trace)``
(:mod:`repro.vmem`), whatever engine recorded it.
"""

from __future__ import annotations

import abc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type, Union

import numpy as np

from repro.api.chunks import (
    ChunkStream,
    ChunkStreamStats,
    open_chunk_stream,
    plan_chunks,
)
from repro.api.dataset import Dataset
from repro.api.sharded import ShardedLabels
from repro.ml.base import compute_threads
from repro.vmem.trace import AccessTrace


@dataclass
class FitResult:
    """Outcome of :meth:`repro.api.Session.fit`.

    Attributes
    ----------
    model:
        The fitted estimator (``fit`` returned it, so learned attributes like
        ``coef_`` are populated).
    engine:
        Name of the engine that ran the training.
    wall_time_s:
        Measured wall-clock training time on this machine.
    trace:
        The access trace recorded during training, when the dataset was
        opened with ``record_trace=True``.
    details:
        Engine-specific extras (the compute-thread count for ``local``, the
        chunk pipeline's accounting for ``streaming``).
    """

    model: Any
    engine: str
    wall_time_s: float
    trace: Optional[AccessTrace] = None
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PredictResult:
    """Outcome of :meth:`repro.api.Session.predict`.

    The inference-side mirror of :class:`FitResult`.

    Attributes
    ----------
    predictions:
        The model's output for every row of the dataset, in row order —
        labels for ``predict``, per-class probabilities for
        ``predict_proba``, and so on.
    model:
        The fitted estimator that served the predictions.
    engine:
        Name of the engine that ran the inference.
    method:
        The prediction method that was driven (``"predict"``,
        ``"predict_proba"``, …).
    wall_time_s:
        Measured wall-clock inference time on this machine.
    trace:
        The access trace recorded during inference, when the dataset was
        opened with ``record_trace=True``.
    details:
        Engine-specific extras — the streaming engine reports the chunk
        pipeline's per-chunk read / I/O-wait / compute accounting here,
        mirroring ``FitResult.details``.
    """

    predictions: np.ndarray
    model: Any
    engine: str
    method: str
    wall_time_s: float
    trace: Optional[AccessTrace] = None
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        """Number of rows served."""
        return int(self.predictions.shape[0])


class ExecutionEngine(abc.ABC):
    """Protocol implemented by every execution engine."""

    #: Name the engine resolves by and reports in its results.
    name: str = ""

    @abc.abstractmethod
    def fit(self, model: Any, dataset: Dataset, y: Optional[Any] = None) -> FitResult:
        """Train ``model`` on ``dataset`` and return a :class:`FitResult`.

        ``y`` overrides the dataset's own labels; clusterers may run with no
        labels at all.
        """

    @abc.abstractmethod
    def predict(self, model: Any, dataset: Dataset, method: str = "predict") -> PredictResult:
        """Run ``model``'s ``method`` over ``dataset``; return a :class:`PredictResult`.

        ``model`` must already be fitted; ``method`` names any of its
        row-wise prediction methods (``predict``, ``predict_proba``,
        ``decision_function``, …).
        """

    @staticmethod
    def _resolve_labels(dataset: Dataset, y: Optional[Any]) -> Optional[np.ndarray]:
        if y is not None:
            return np.asarray(y)
        labels = dataset.labels
        return None if labels is None else np.asarray(labels)

    @staticmethod
    def _run_fit(model: Any, X: Any, y: Optional[np.ndarray]) -> float:
        start = time.perf_counter()
        if y is None:
            model.fit(X)
        else:
            model.fit(X, y)
        return time.perf_counter() - start

    @staticmethod
    def _predict_fn(model: Any, method: str) -> Any:
        """The bound prediction method, validated to exist and be public."""
        if not method or method.startswith("_"):
            raise ValueError(f"invalid prediction method {method!r}")
        fn = getattr(model, method, None)
        if not callable(fn):
            raise TypeError(
                f"{type(model).__name__} has no {method}() method; cannot "
                f"serve predictions with it"
            )
        return fn


class LocalEngine(ExecutionEngine):
    """In-process training on the dataset's matrix (the M3 model).

    **Compute threads.**  The estimator runs unmodified; its full-matrix
    passes (an L-BFGS objective evaluation, a Lloyd iteration, ``predict``)
    fan their row chunks over :func:`repro.ml.base.map_row_chunks`.  There is
    no knob: the worker count is CPUs available to the process ÷ BLAS threads
    (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else the CPU count),
    at least 1 — with OpenBLAS left at two threads a two-worker objective
    pass measured 197 ms against 170 ms serial, so an unpinned process keeps
    the serial loop and ``OPENBLAS_NUM_THREADS=1`` (recommended for
    ``m3 train`` / ``m3 predict``) gives every core to the chunk map.  Chunks
    are sliced in order on the calling thread and reduced in chunk order, so
    fitted attributes, predictions and the recorded access trace are
    bit-identical at any count; the count that ran is reported as
    ``details["compute_threads"]``.

    **The product.**  With a warm cache a pass here is all compute, so its
    floor is the per-row gemm: every estimator's per-row product is
    :func:`repro.ml.base.rows_matmul`, fixed-height calls that stay on
    OpenBLAS's small-matrix kernel.  A softmax ``predict`` over the e2e
    benchmark's 65,536 × 784 map takes 36–39 ms on two workers, against
    67–82 ms as one gemm per chunk; and since a row's bits no longer depend
    on the chunk it was cut into, this engine's predictions equal the
    streaming engine's over any shard heights and chunk sizes.
    """

    name = "local"

    def fit(self, model: Any, dataset: Dataset, y: Optional[Any] = None) -> FitResult:
        labels = self._resolve_labels(dataset, y)
        elapsed = self._run_fit(model, dataset.matrix, labels)
        return FitResult(
            model=model,
            engine=self.name,
            wall_time_s=elapsed,
            trace=dataset.trace,
            details={"compute_threads": compute_threads()},
        )

    def predict(self, model: Any, dataset: Dataset, method: str = "predict") -> PredictResult:
        fn = self._predict_fn(model, method)
        start = time.perf_counter()
        predictions = np.asarray(fn(dataset.matrix))
        elapsed = time.perf_counter() - start
        return PredictResult(
            predictions=predictions,
            model=model,
            engine=self.name,
            method=method,
            wall_time_s=elapsed,
            trace=dataset.trace,
            details={"compute_threads": compute_threads()},
        )


class StreamingEngine(ExecutionEngine):
    """Chunk-pipelined training and serving over prefetched row blocks.

    For :meth:`fit` the estimator must implement the chunk-streaming protocol
    of :class:`~repro.ml.base.StreamingEstimator` (``partial_fit`` /
    ``fit_streaming``); for :meth:`predict` it must implement
    :class:`~repro.ml.base.StreamingPredictor` (``predict_chunk`` /
    ``predict_streaming``), which every estimator in :mod:`repro.ml` does.
    Each pass streams the dataset as shard-aligned row chunks through one
    :class:`~repro.api.chunks.ChunkStream`; a reader thread reads chunk
    *k+1* while chunk *k* trains (or predicts), which is what lets an
    out-of-core ``shard://`` dataset keep the CPU busy.  A model's final
    read pass (``finalize_streaming``, e.g. MiniBatchKMeans' ``inertia_``) is
    one more pass of the same stream, opened only if the model reads it.
    Labels are sliced per chunk — a sharded dataset's lazy label view is
    never materialised.

    The constructor is the one place a scan is configured: ``Session.fit`` /
    ``Session.predict`` take an engine, not pipeline options, and ``m3 train``
    / ``m3 predict`` build theirs from ``--chunk-rows`` / ``--io-workers`` /
    ``--compute-workers``.  An engine always plans shard-aligned chunks and
    reads ahead; inline reads, unaligned plans and a shared buffer ring are
    :func:`~repro.api.chunks.open_chunk_stream` settings, and its streams feed
    :meth:`~repro.ml.base.StreamingPredictor.predict_streaming` directly.

    Parameters
    ----------
    chunk_rows:
        Steady-state rows per chunk.  ``None`` (default) uses the model's own
        ``chunk_size``/``batch_size`` when it has one — so streaming training
        makes the *same* parameter updates as in-core ``fit`` — and otherwise
        auto-sizes chunks from a byte target with an adaptive ramp.
    io_workers:
        Reader threads.  ``None`` (default) = one reader with a window of two
        chunks (double buffering); ``n >= 1`` = exactly ``n`` readers.  The
        window is ``max(2, 2 × readers)``, reported as ``prefetch_depth`` in
        the result details.
    compute_workers:
        Worker threads for data-parallel streaming ``predict``: chunk
        inference fans across :func:`repro.ml.base.map_ordered` — the same
        fan-out the local engine's full-matrix passes use — each worker
        writing a disjoint slice of the preallocated output buffer
        (bit-identical to in-core at any count).  ``None`` (default)
        resolves once, here, to :func:`repro.ml.base.compute_threads` — the
        local engine's rule, CPUs ÷ BLAS threads (see :class:`LocalEngine`),
        so an unpinned BLAS keeps the sequential loop and
        ``OPENBLAS_NUM_THREADS=1`` serves chunks on every core; an explicit
        ``n >= 1`` overrides it, and ``1`` keeps inference sequential.  The
        two counts are one budget, not two: a chunk served on one of these
        workers runs its own ``predict`` inline (a nested fan-out never
        starts a second pool), and with ``1`` a chunk taller than the
        model's ``chunk_size`` fans out by the local engine's rule.
        Training is unaffected (``partial_fit`` is an ordered reduction),
        and a model's ``finalize_streaming`` pass follows
        :func:`~repro.ml.base.compute_threads` whatever the value.  Over a
        compressed (v2) dataset every reader decodes what it fetches, and
        the stream runs ``max(io_workers, compute_workers)`` readers, so
        decode also runs on this many threads.  The resolved count is the
        attribute and ``details["compute_workers"]``.
    hints:
        Issue OS readahead hints (madvise/posix_fadvise) per upcoming chunk.
    release_behind:
        ``dont_need`` page cache strictly behind the scan cursor.  ``None`` =
        auto (on when the plan is larger than physical RAM); ``True``/``False``
        force it.  Applied release hints are reported as ``hints_released``
        in the result details.
    """

    name = "streaming"

    def __init__(
        self,
        chunk_rows: Optional[int] = None,
        io_workers: Optional[int] = None,
        compute_workers: Optional[int] = None,
        hints: bool = True,
        release_behind: Optional[bool] = None,
    ) -> None:
        if chunk_rows is not None and chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        if io_workers is not None and io_workers < 1:
            raise ValueError(f"io_workers must be >= 1, got {io_workers}")
        if compute_workers is None:
            compute_workers = compute_threads()
        elif compute_workers < 1:
            raise ValueError(f"compute_workers must be >= 1, got {compute_workers}")
        self.chunk_rows = chunk_rows
        self.io_workers = io_workers
        self.compute_workers = compute_workers
        self.hints = hints
        self.release_behind = release_behind

    @staticmethod
    def _model_chunk_hint(model: Any) -> Optional[int]:
        for attribute in ("chunk_size", "batch_size"):
            hint = getattr(model, attribute, None)
            if isinstance(hint, (int, np.integer)) and hint > 0:
                return int(hint)
        return None

    @staticmethod
    def _label_source(dataset: Dataset, y: Optional[Any]) -> Optional[Any]:
        """The label vector to slice per chunk — kept lazy, never copied."""
        if y is not None:
            return np.asarray(y)
        return dataset.labels

    @staticmethod
    def _classes_of(labels: Any) -> np.ndarray:
        if isinstance(labels, ShardedLabels):
            return labels.unique()
        return np.unique(np.asarray(labels))

    def fit(self, model: Any, dataset: Dataset, y: Optional[Any] = None) -> FitResult:
        fit_streaming = getattr(model, "fit_streaming", None)
        if fit_streaming is None or not hasattr(model, "partial_fit"):
            raise TypeError(
                f"{type(model).__name__} does not implement the chunk-streaming "
                f"protocol (partial_fit/fit_streaming); use engine='local', or a "
                f"streaming estimator such as LogisticRegression(solver='sgd'), "
                f"MiniBatchKMeans or GaussianNaiveBayes"
            )
        labels = self._label_source(dataset, y)
        classes = self._classes_of(labels) if labels is not None else None
        chunk_rows = self.chunk_rows if self.chunk_rows is not None else self._model_chunk_hint(model)
        plan = plan_chunks(dataset.matrix, chunk_rows=chunk_rows)

        stats = ChunkStreamStats()
        passes = 0
        readers: list = []
        reader_log: list = []
        stream = None

        @contextmanager
        def open_pass(pass_labels: Optional[Any] = None):
            # One pass over the plan, counted and folded into the totals once
            # it is exhausted.  The first pass's stream allocates the buffer
            # ring and every later pass reuses it — steady-state training
            # makes zero per-chunk allocations even across epochs.
            nonlocal passes, stream
            passes += 1
            pool = stream.pool if stream is not None else None
            stream = self._open_stream(
                dataset.matrix, labels=pass_labels, plan=plan, pool=pool
            )
            with stream:
                yield stream
            stats.merge(stream.stats)
            self._merge_reader_stats(readers, reader_log, stream)

        def make_stream():
            with open_pass(labels) as chunks:
                for chunk in chunks:
                    try:
                        yield chunk.X, chunk.y
                    finally:
                        chunk.release()

        start = time.perf_counter()
        # ``open_pass`` is a chunk source (see repro.ml.base.map_row_chunks).
        fit_streaming(make_stream, classes=classes, finalize=open_pass)
        elapsed = time.perf_counter() - start

        details = self._pipeline_details(stats, stream, readers, reader_log)
        details["passes"] = passes
        return FitResult(
            model=model,
            engine=self.name,
            wall_time_s=elapsed,
            trace=dataset.trace,
            details=details,
        )

    def _open_stream(self, matrix: Any, labels: Optional[Any] = None,
                     plan: Optional[Any] = None, pool: Optional[Any] = None) -> ChunkStream:
        """One chunk stream over ``matrix`` with this engine's pipeline knobs."""
        return open_chunk_stream(
            matrix,
            labels=labels,
            plan=plan,
            io_workers=self.io_workers,
            buffer_pool=pool,
            hints=self.hints,
            release_behind=self.release_behind,
            # Readers of compressed (v2) shards decode what they fetch: the
            # knob that sizes data-parallel predict also sizes that decode.
            decode_workers=self.compute_workers,
        )

    @staticmethod
    def _merge_reader_stats(accumulated: list, log: list, stream: ChunkStream) -> None:
        """Fold a stream's per-reader accounting and claims into the across-pass totals."""
        for reader, (entry, claims) in enumerate(zip(stream.reader_stats, stream.reader_log)):
            if reader == len(accumulated):
                accumulated.append(dict(entry))
                log.append(list(claims))
            else:
                for key in ("chunks", "rows", "bytes_read", "read_s"):
                    accumulated[reader][key] += entry[key]
                log[reader].extend(claims)

    def _pipeline_details(
        self, stats: ChunkStreamStats, stream: ChunkStream, readers: list, reader_log: list
    ) -> Dict[str, Any]:
        """The chunk pipeline's accounting, shared by ``fit`` and ``predict``.

        ``stream`` is the last stream the run opened: every pass uses the same
        plan and knobs, so its geometry (readers, window, ring) describes
        them all; ``stats``, ``readers`` and ``reader_log`` are the
        across-pass totals.
        """
        plan = stream.plan
        details: Dict[str, Any] = stats.as_dict()
        details.update(
            {
                "chunk_rows": plan.chunk_rows,
                "chunks_per_pass": plan.num_chunks,
                "shard_aligned": plan.aligned,
                "prefetch_depth": stream.depth,
                "io_workers": stream.io_workers,
                "compute_workers": self.compute_workers,
                "per_chunk": [
                    {"read_s": r, "io_wait_s": w, "compute_s": c}
                    for r, w, c in stats.samples
                ],
                "readers": [dict(entry) for entry in readers],
                "reader_log": reader_log,
            }
        )
        if stream.pool is not None:
            details["buffer_pool_buffers"] = stream.pool.buffers
            details["buffer_pool_bytes"] = stream.pool.nbytes
            details["buffer_pool_leases"] = stream.pool.leases_served
        return details

    def predict(self, model: Any, dataset: Dataset, method: str = "predict") -> PredictResult:
        """Serve predictions chunk by chunk through the prefetch pipeline.

        The model's :class:`~repro.ml.base.StreamingPredictor` hooks consume
        shard-aligned row blocks (read ahead by the stream's readers) and
        scatter each block's predictions into one preallocated output buffer,
        so serving never materialises more than a chunk of input rows — while
        the result is bit-identical to the in-core ``model.predict`` (the
        prediction methods are row-wise).  ``PredictResult.details`` carries
        the same read / I/O-wait / compute accounting as streaming ``fit``.
        """
        self._predict_fn(model, method)  # validate before opening the stream
        if not callable(getattr(model, "predict_streaming", None)):
            raise TypeError(
                f"{type(model).__name__} does not implement the streaming "
                f"inference protocol (predict_chunk/predict_streaming); mix in "
                f"repro.ml.base.StreamingPredictor, or use engine='local'"
            )
        chunk_rows = self.chunk_rows if self.chunk_rows is not None else self._model_chunk_hint(model)
        plan = plan_chunks(dataset.matrix, chunk_rows=chunk_rows)
        start = time.perf_counter()
        stream = self._open_stream(dataset.matrix, plan=plan)
        with stream:
            if plan.num_chunks == 0:
                # An empty dataset has no chunks to infer output geometry
                # from; the in-core method returns the right empty array.
                predictions = np.asarray(self._predict_fn(model, method)(dataset.matrix))
            else:
                predictions = model.predict_streaming(
                    stream, plan.n_rows, method=method, workers=self.compute_workers
                )
        elapsed = time.perf_counter() - start
        details = self._pipeline_details(
            stream.stats, stream, stream.reader_stats, stream.reader_log
        )
        return PredictResult(
            predictions=predictions,
            model=model,
            engine=self.name,
            method=method,
            wall_time_s=elapsed,
            trace=dataset.trace,
            details=details,
        )


#: The engine classes an engine name resolves to.
ENGINE_REGISTRY: Dict[str, Type[ExecutionEngine]] = {
    LocalEngine.name: LocalEngine,
    StreamingEngine.name: StreamingEngine,
}


def resolve_engine(engine: Union[str, ExecutionEngine, Type[ExecutionEngine], None]) -> ExecutionEngine:
    """Turn an engine name, class or instance into an engine instance."""
    if engine is None:
        return LocalEngine()
    if isinstance(engine, ExecutionEngine):
        return engine
    if isinstance(engine, type) and issubclass(engine, ExecutionEngine):
        return engine()
    if isinstance(engine, str):
        try:
            return ENGINE_REGISTRY[engine]()
        except KeyError:
            known = ", ".join(sorted(ENGINE_REGISTRY))
            raise ValueError(
                f"unknown execution engine {engine!r} (known: {known})"
            ) from None
    raise TypeError(f"cannot resolve an execution engine from {engine!r}")
