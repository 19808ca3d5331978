"""The request-level model server: micro-batching over hot models.

Everything else in the repository serves *scan-level* traffic — one
:meth:`~repro.api.Session.predict` call walks a whole dataset.  This module
adds the online half: a long-lived :class:`ModelServer` that accepts
single-row / small-batch predict **requests**, coalesces concurrent requests
into chunk-sized micro-batches, and computes each batch with
:func:`serve_batch` (the :class:`~repro.ml.base.StreamingPredictor`
per-chunk path, so a served prediction is bit-identical to the in-core
``model.predict`` row).

The moving parts:

* a bounded request queue with **backpressure** — ``submit`` blocks (or
  raises :class:`ServerSaturated`) once ``max_pending`` requests are queued,
  so a burst can never grow memory without bound;
* a **micro-batcher**: one dispatcher thread pops the oldest request, then
  coalesces further same-``(model, method)`` requests for up to
  ``max_delay_ms`` or until ``max_batch`` rows are gathered — amortising the
  per-call overhead that dominates single-row inference;
* the :class:`~repro.serve.registry.ModelRegistry` of hot models, resolved
  **once per batch**, so every response names exactly one model version even
  while a hot-swap lands mid-flight;
* per-request latency accounting — queue-wait / batch-coalesce / compute —
  carried on each :class:`ServeResult` and aggregated in :class:`ServeStats`
  (the serving-side sibling of ``FitResult``/``PredictResult`` accounting).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.runtime import make_condition
from repro.api.chunks import ChunkStreamError
from repro.api.engines import ExecutionEngine
from repro.data.codecs import CodecError
from repro.data.formats_v2 import ChecksumError
from repro.faults import InjectedFault, RetriesExhausted, maybe_fire, policy_for
from repro.serve.registry import ModelLike, ModelRegistry, ModelVersion

#: Per-request queue-wait samples kept for percentile reporting: the most
#: recent this many, so a long-lived server's tail describes its last hour.
MAX_WAIT_SAMPLES = 65536

DEFAULT_MODEL_NAME = "default"


class ServerClosed(RuntimeError):
    """The server no longer accepts requests (it was closed)."""


class ServerSaturated(RuntimeError):
    """Backpressure: the bounded request queue is full.

    Raised by ``submit(block=False)`` immediately, or by a blocking submit
    whose ``timeout`` elapsed before queue space freed up.
    """


class ServeError(RuntimeError):
    """A request's batch failed on the *serving pipeline*, not the model.

    Device-level trouble — a failed read, an exhausted retry budget, a
    checksum mismatch, an injected fault — fails only the affected batch's
    futures with this typed error (chained ``from`` the underlying cause);
    the server keeps dispatching every other request.  Model-level errors
    (unknown model name, missing method, shape mismatch) keep their original
    types so callers can tell their own bugs from infrastructure failures.
    """


@dataclass(frozen=True)
class ServeResult:
    """One served request: predictions plus where and how they were computed.

    The request-level sibling of :class:`~repro.api.engines.PredictResult`.

    Attributes
    ----------
    predictions:
        The model's output for the request's rows, in request row order.
    model_name, model_version:
        Exactly which registry version served the request — every row of one
        result comes from this single version, hot-swaps notwithstanding.
    method:
        The prediction method driven (``"predict"``, ``"predict_proba"``, …).
    queue_wait_s:
        Time from enqueue to batch dispatch — what the client paid for
        batching (includes the coalesce window).
    batch_s:
        The dispatcher's coalesce window for the batch this request rode in.
    compute_s:
        The batch's single compute call (shared across its requests).
    batch_rows, batch_requests:
        Size of the coalesced batch the request was served in.
    """

    predictions: np.ndarray
    model_name: str
    model_version: int
    method: str
    queue_wait_s: float
    batch_s: float
    compute_s: float
    batch_rows: int
    batch_requests: int

    @property
    def n_rows(self) -> int:
        """Rows served for this request."""
        return int(self.predictions.shape[0])

    @property
    def prediction(self) -> Any:
        """The first (for ``predict_one``: the only) row's prediction."""
        return self.predictions[0]

    @property
    def model_key(self) -> str:
        """``name@version`` of the serving model."""
        return f"{self.model_name}@{self.model_version}"


@dataclass
class ServeStats:
    """Aggregate accounting of one server's lifetime of requests.

    ``queue_wait_s`` sums per-request waits; ``batch_s`` and ``compute_s``
    sum per-batch coalesce and compute time.  ``wait_samples`` keeps the most
    recent :data:`MAX_WAIT_SAMPLES` requests' queue waits so tail latency is
    reportable, not just the mean.
    """

    requests: int = 0
    rows: int = 0
    batches: int = 0
    queue_wait_s: float = 0.0
    batch_s: float = 0.0
    compute_s: float = 0.0
    errors: int = 0
    rejected: int = 0
    #: Requests whose futures were failed by a dispatch error (a subset of
    #: lifetime accounting ``errors`` counts the same way).
    failed_requests: int = 0
    #: Dispatch attempts that failed transiently and were retried.
    retries: int = 0
    #: Dispatch errors injected by an active fault plan.
    faults_injected: int = 0
    wait_samples: "deque[float]" = field(
        default_factory=lambda: deque(maxlen=MAX_WAIT_SAMPLES)
    )

    def record_batch(
        self, waits: List[float], rows: int, batch_s: float, compute_s: float
    ) -> None:
        """Fold one dispatched batch into the aggregate."""
        self.batches += 1
        self.requests += len(waits)
        self.rows += rows
        self.queue_wait_s += sum(waits)
        self.batch_s += batch_s
        self.compute_s += compute_s
        self.wait_samples.extend(waits)

    @property
    def mean_batch_rows(self) -> float:
        """Average rows per dispatched batch — the micro-batching win."""
        return self.rows / self.batches if self.batches else 0.0

    def queue_wait_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of sampled per-request queue waits."""
        if not self.wait_samples:
            return 0.0
        return float(np.percentile(np.asarray(self.wait_samples), q))

    def as_dict(self) -> dict:
        """JSON-friendly summary (percentiles included, samples dropped)."""
        return {
            "requests": self.requests,
            "rows": self.rows,
            "batches": self.batches,
            "mean_batch_rows": self.mean_batch_rows,
            "queue_wait_s": self.queue_wait_s,
            "queue_wait_p50_s": self.queue_wait_percentile(50),
            "queue_wait_p99_s": self.queue_wait_percentile(99),
            "batch_s": self.batch_s,
            "compute_s": self.compute_s,
            "errors": self.errors,
            "rejected": self.rejected,
            "failed_requests": self.failed_requests,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
        }

    def snapshot(self) -> "ServeStats":
        """An independent copy (the live object keeps accumulating)."""
        return replace(self, wait_samples=self.wait_samples.copy())


class _Request:
    """One queued predict request: rows, routing key, and its future."""

    __slots__ = ("rows", "model", "method", "enqueued_at", "future")

    def __init__(self, rows: np.ndarray, model: str, method: str) -> None:
        self.rows = rows
        self.model = model
        self.method = method
        self.enqueued_at = time.perf_counter()
        self.future: "Future[ServeResult]" = Future()

    @property
    def key(self) -> Tuple[str, str, int]:
        """Requests coalesce only within one ``(model, method, width)`` key.

        Row width is part of the key so a request with the wrong feature
        count forms (and fails in) its own batch instead of poisoning the
        concatenation of every innocent request that coalesced with it.
        """
        return (self.model, self.method, int(self.rows.shape[1]))

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


def serve_batch(model: Any, X: Any, method: str = "predict") -> np.ndarray:
    """Predictions for one coalesced micro-batch of request rows.

    Drives the model's :class:`~repro.ml.base.StreamingPredictor` per-chunk
    hook (``predict_chunk``), which delegates to the in-core ``method`` — so
    a served row is bit-identical to the corresponding row of an in-core
    full-matrix call.

    Every per-row product in those methods is a
    :func:`~repro.ml.base.rows_matmul` call, whose row results do not depend
    on the batch's height, so a lone row needs no special shape: it is
    padded to an 8-row gemm like any short tail, and its bits do not depend
    on how much traffic it happened to share a batch with.
    """
    if not method or method.startswith("_"):
        raise ValueError(f"invalid prediction method {method!r}")
    chunk_fn = getattr(model, "predict_chunk", None)
    if callable(chunk_fn):
        return np.asarray(chunk_fn(X, method=method))
    return np.asarray(ExecutionEngine._predict_fn(model, method)(X))


class ModelServer:
    """A long-lived serving daemon: hot models + micro-batched dispatch.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` to resolve models
        from; a private one is created when omitted.
    max_batch:
        Maximum rows coalesced into one dispatch.
    max_delay_ms:
        How long the dispatcher holds an underfull batch open waiting for
        more requests.  ``0`` (the default) dispatches whatever is queued
        immediately — micro-batches still form under load, because requests
        arriving while a batch computes coalesce into the next dispatch
        (self-clocking batching).  Raise it only for open-loop traffic where
        trading per-request latency for larger batches is worth it; clients
        that wait for their response before sending the next request
        (closed-loop) only ever pay the delay, never gain from it.
    max_pending:
        Bounded queue depth in *requests*; beyond it ``submit`` blocks
        (backpressure) or raises :class:`ServerSaturated`.
    delay_controller:
        Optional adaptive replacement for ``max_delay_ms`` — an object
        with ``record_arrival()`` and ``delay_s()`` (duck-typed so this
        module needs no import of :mod:`repro.net`; in practice a
        :class:`repro.net.AdaptiveDelayController`).  Every offered
        ``submit`` records an arrival and the dispatcher reads the learned
        window when it opens a batch, both under the server's condition,
        so the coalesce delay tracks the observed arrival rate instead of a
        constant.

    One dispatcher thread computes every batch: a batch's compute is one
    native call over coalesced rows, and requests that arrive meanwhile
    coalesce into the next batch.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        max_batch: int = 256,
        max_delay_ms: float = 0.0,
        max_pending: int = 1024,
        delay_controller: Optional[Any] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_batch = max_batch
        self.max_delay_s = max_delay_ms / 1000.0
        self.max_pending = max_pending
        self.delay_controller = delay_controller
        self._cond = make_condition("repro.serve.server.ModelServer._cond")
        self._queue: List[_Request] = []
        self._stats = ServeStats()
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._work, name="m3-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- model management ----------------------------------------------------

    def publish(self, name: str, model_or_path: ModelLike) -> ModelVersion:
        """Hot-swap ``name`` to a new model version (atomic, under load)."""
        return self.registry.publish(name, model_or_path)

    # -- request intake ------------------------------------------------------

    @staticmethod
    def _as_rows(rows: Any) -> np.ndarray:
        X = np.asarray(rows)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ValueError(
                f"a request must be one row or a 2-D batch of rows, got "
                f"shape {X.shape}"
            )
        if X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError(
                f"a request must carry at least one row of at least one "
                f"feature, got shape {X.shape}"
            )
        return X

    def submit(
        self,
        rows: Any,
        method: str = "predict",
        model: str = DEFAULT_MODEL_NAME,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[ServeResult]":
        """Enqueue a predict request; returns a future of its :class:`ServeResult`.

        The asynchronous entry point: callers that keep several requests in
        flight are what micro-batching coalesces.  With ``block=False`` (or a
        ``timeout``) a full queue raises :class:`ServerSaturated` instead of
        waiting — the caller's backpressure signal.
        """
        if not method or method.startswith("_"):
            raise ValueError(f"invalid prediction method {method!r}")
        request = _Request(self._as_rows(rows), model, method)
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            if self.delay_controller is not None:
                # Offered arrivals, counted before backpressure: a saturated
                # burst is exactly when the learned window should be widest.
                self.delay_controller.record_arrival()
            if self._closed:
                raise ServerClosed("server is closed")
            while len(self._queue) >= self.max_pending:
                if not block:
                    self._stats.rejected += 1
                    raise ServerSaturated(
                        f"request queue is full ({self.max_pending} pending)"
                    )
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    self._stats.rejected += 1
                    raise ServerSaturated(
                        f"request queue stayed full ({self.max_pending} "
                        f"pending) for {timeout}s"
                    )
                self._cond.wait(timeout=remaining)
                if self._closed:
                    raise ServerClosed("server is closed")
            request.enqueued_at = time.perf_counter()
            self._queue.append(request)
            self._cond.notify_all()
        return request.future

    def predict_one(
        self,
        x: Any,
        method: str = "predict",
        model: str = DEFAULT_MODEL_NAME,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Serve one row synchronously (submit + wait)."""
        return self.submit(x, method=method, model=model).result(timeout=timeout)

    def predict_many(
        self,
        rows: Any,
        method: str = "predict",
        model: str = DEFAULT_MODEL_NAME,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Serve a small batch (a 2-D array of rows) synchronously."""
        return self.submit(rows, method=method, model=model).result(timeout=timeout)

    # -- dispatcher ----------------------------------------------------------

    def _work(self) -> None:
        while True:
            batch, batch_s = self._next_batch()
            if batch is None:
                return
            self._dispatch(batch, batch_s)

    def _next_batch(self) -> Tuple[Optional[List[_Request]], float]:
        """Pop the oldest request and coalesce same-key followers onto it.

        Blocks until a request arrives (or the server closes and the queue
        drains).  The coalesce window stays open for up to ``max_delay_s``
        after the head pops, or until ``max_batch`` rows are gathered —
        whichever comes first.  Returns the batch plus the window span.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None, 0.0
                # Bounded: every queue mutation and close() notifies under
                # this lock, so the timeout is pure insurance — had the
                # dispatcher somehow missed its wakeup, it re-checks the exit
                # conditions within a second instead of sleeping forever
                # (an idle queue is a normal state, never an error).
                self._cond.wait(timeout=1.0)
            head = self._queue.pop(0)
            self._cond.notify_all()  # queue space freed: wake submitters
            batch = [head]
            rows = head.n_rows
            opened = time.perf_counter()
            # Adaptive mode reads the learned window as the batch opens;
            # fixed mode keeps the constructor constant.
            delay_s = (
                self.max_delay_s
                if self.delay_controller is None
                else self.delay_controller.delay_s()
            )
            deadline = opened + delay_s
            while rows < self.max_batch:
                rows += self._take_matching(head.key, batch, self.max_batch - rows)
                if rows >= self.max_batch:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(timeout=remaining)
            return batch, time.perf_counter() - opened

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """Count one retried dispatch attempt (runs on the dispatcher thread)."""
        with self._cond:
            self._stats.retries += 1
            if isinstance(error, InjectedFault):
                self._stats.faults_injected += 1

    def _take_matching(  # lint: caller-holds-lock
        self, key: Tuple[str, str, int], batch: List[_Request], budget: int
    ) -> int:
        """Move queued requests matching ``key`` into ``batch`` (FIFO order).

        Takes at most ``budget`` more rows; requests for other models or
        methods stay queued for a later batch.  Caller holds the lock.
        """
        taken_rows = 0
        index = 0
        while index < len(self._queue) and taken_rows < budget:
            request = self._queue[index]
            if request.key == key:
                self._queue.pop(index)
                batch.append(request)
                taken_rows += request.n_rows
            else:
                index += 1
        if taken_rows:
            self._cond.notify_all()
        return taken_rows

    def _dispatch(self, batch: List[_Request], batch_s: float) -> None:
        """Serve one coalesced batch with exactly one resolved model version."""
        dispatched_at = time.perf_counter()
        waits = [dispatched_at - request.enqueued_at for request in batch]
        method = batch[0].method
        X = (
            batch[0].rows
            if len(batch) == 1
            else np.concatenate([request.rows for request in batch], axis=0)
        )

        def attempt() -> Tuple[ModelVersion, np.ndarray, float]:
            maybe_fire("serve.dispatch", batch[0].model)
            # Resolved once per attempt: every request in the batch is
            # answered by one immutable version, however many hot-swaps land
            # meanwhile.
            resolved = self.registry.resolve(batch[0].model)
            began = time.perf_counter()
            predictions = np.asarray(
                serve_batch(resolved.model, X, method=method)
            )
            compute_s = time.perf_counter() - began
            if predictions.shape[0] != X.shape[0]:
                raise ValueError(
                    f"{method} returned {predictions.shape[0]} rows for a "
                    f"{X.shape[0]}-row batch"
                )
            return resolved, predictions, compute_s

        try:
            resolved, predictions, compute_s = policy_for("serve.dispatch").call(
                attempt, site="serve.dispatch", on_retry=self._count_retry
            )
        except BaseException as error:  # noqa: BLE001 — relayed per request
            injected = isinstance(error, InjectedFault) or isinstance(
                error.__cause__, InjectedFault
            )
            with self._cond:
                self._stats.errors += len(batch)
                self._stats.failed_requests += len(batch)
                if injected:
                    self._stats.faults_injected += 1
            relayed: BaseException = error
            if isinstance(
                error,
                (OSError, RetriesExhausted, ChunkStreamError, ChecksumError, CodecError),
            ):
                # Pipeline trouble gets the typed wrapper; model-level errors
                # (KeyError, TypeError, shape ValueError) keep their types.
                relayed = ServeError(
                    f"batch of {len(batch)} request(s) failed in the serving "
                    f"pipeline: {error!r}"
                )
                relayed.__cause__ = error
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(relayed)
            return
        total_rows = int(X.shape[0])
        # Record before completing any future: a client that wakes from
        # result() must already see its request in stats().
        with self._cond:
            self._stats.record_batch(waits, total_rows, batch_s, compute_s)
        offset = 0
        for request, wait_s in zip(batch, waits):
            span = request.n_rows
            result = ServeResult(
                predictions=predictions[offset : offset + span],
                model_name=resolved.name,
                model_version=resolved.version,
                method=method,
                queue_wait_s=wait_s,
                batch_s=batch_s,
                compute_s=compute_s,
                batch_rows=total_rows,
                batch_requests=len(batch),
            )
            offset += span
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(result)

    # -- introspection -------------------------------------------------------

    def stats(self) -> ServeStats:
        """A snapshot of the server's aggregate accounting."""
        with self._cond:
            return self._stats.snapshot()

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet claimed by the dispatcher)."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop intake, serve every queued request, join the dispatcher.

        Idempotent.  After it returns, every request accepted before it
        began has a completed future, the dispatcher thread has ended, and
        new ``submit`` calls raise :class:`ServerClosed`.  The network front
        end calls this after it stops accepting connections and before it
        drops its transports, so in-flight clients get their answers.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=10.0)
        # Paranoia: if the dispatcher died without draining, fail the leftovers
        # instead of leaving their futures hanging forever.
        with self._cond:
            leftovers = self._queue
            self._queue = []
        for request in leftovers:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ServerClosed("server is closed"))

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else f"{self.pending} pending"
        return (
            f"ModelServer(models={self.registry.names() or '[]'}, "
            f"max_batch={self.max_batch}, {status})"
        )


class Serving:
    """A :class:`ModelServer` bound to one published model.

    What :meth:`repro.api.Session.serve` returns: the session publishes the
    model under one name, and this facade forwards ``predict_one`` /
    ``predict_many`` / ``submit`` to the server with that name pre-filled.
    :meth:`swap` republishes the name — the atomic hot-swap — and the whole
    thing is a context manager that closes its server.
    """

    def __init__(self, server: ModelServer, name: str = DEFAULT_MODEL_NAME) -> None:
        self.server = server
        self.name = name

    @property
    def model_version(self) -> ModelVersion:
        """The registry version currently serving this name."""
        return self.server.registry.resolve(self.name)

    def swap(self, model_or_path: ModelLike) -> ModelVersion:
        """Atomically replace the served model (requests in flight keep the
        version their batch resolved)."""
        return self.server.publish(self.name, model_or_path)

    def submit(
        self,
        rows: Any,
        method: str = "predict",
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[ServeResult]":
        """Asynchronous request against the served model."""
        return self.server.submit(
            rows, method=method, model=self.name, block=block, timeout=timeout
        )

    def predict_one(
        self, x: Any, method: str = "predict", timeout: Optional[float] = None
    ) -> ServeResult:
        """Serve one row synchronously."""
        return self.server.predict_one(
            x, method=method, model=self.name, timeout=timeout
        )

    def predict_many(
        self, rows: Any, method: str = "predict", timeout: Optional[float] = None
    ) -> ServeResult:
        """Serve a small batch (a 2-D array of rows) synchronously."""
        return self.server.predict_many(
            rows, method=method, model=self.name, timeout=timeout
        )

    def stats(self) -> ServeStats:
        """The underlying server's aggregate accounting."""
        return self.server.stats()

    def close(self) -> None:
        """Close the underlying server (drains queued requests)."""
        self.server.close()

    def __enter__(self) -> "Serving":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        try:
            key = self.model_version.key
        except KeyError:
            key = f"{self.name}@unpublished"
        return f"Serving({key} on {self.server!r})"
