"""The :class:`Session` — the single entry point of the unified M3 API.

A ``Session`` resolves URI-style dataset specs to
:class:`~repro.api.storage.StorageBackend` instances, hands out
:class:`~repro.api.Dataset` handles, and dispatches training
(:meth:`Session.fit`) and serving (:meth:`Session.predict`) to an
:class:`~repro.api.engines.ExecutionEngine`:

.. code-block:: python

    from repro.api import Session
    from repro.ml import LogisticRegression

    with Session() as session:
        dataset = session.open("mmap://infimnist_10gb.m3")
        result = session.fit(LogisticRegression(max_iterations=10), dataset)
        print(result.model.coef_, result.wall_time_s)

Swapping storage is one spec change (``"shard://dir/"`` instead of
``"mmap://data.m3"`` — a dataset of many shards, or of coded ones, for the
one memory-mapped raw shard); swapping execution is one keyword
(``engine="streaming"``) — the estimator code is untouched, which is the
paper's transparency claim carried through every backend and engine.  A
dataset opened with ``record_trace=True`` hands its access trace to
``FitResult.trace`` on either engine, for
:class:`~repro.vmem.VirtualMemorySimulator` to replay at paper scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.faults import FaultPlan

import numpy as np

from repro.analysis.runtime import make_rlock
from repro.api.dataset import Dataset
from repro.api.engines import (
    ExecutionEngine,
    FitResult,
    PredictResult,
    resolve_engine,
)
from repro.api.storage import (
    DatasetSpec,
    MemoryBackend,
    SpecLike,
    StorageBackend,
    StorageHandle,
    make_backend,
    parse_spec,
)


class Session:
    """Owns storage backends, open datasets and the default execution engine.

    Parameters
    ----------
    engine:
        Default execution engine for :meth:`fit` — a name (``"local"``,
        ``"streaming"``), an
        :class:`~repro.api.engines.ExecutionEngine` instance, or ``None`` for
        local execution.
    handle_pool_size:
        Must be ``0``: every open owns its own maps and descriptors, and the
        page cache keeps a hot dataset's pages resident.
    faults:
        A fault-injection plan for this session — a
        :class:`~repro.faults.FaultPlan`, a spec string such as
        ``"read.pread:p=0.05:seed=7"``, or ``None`` (the default: inherit
        whatever ``REPRO_FAULTS`` set process-wide).  Installed for the
        session's lifetime and restored to the previous plan on
        :meth:`close`.  See :mod:`repro.faults` for the site catalogue.

    Notes
    -----
    Backend instances are cached per scheme, so ``memory://`` datasets created
    through a session stay visible to that session (and only to it — there is
    no module-level shared state).  Datasets opened by the session are closed
    when the session itself is closed or exits its ``with`` block.

    Sessions are thread-safe: the dataset list and backend cache are
    guarded by one re-entrant session lock, so threads may open, refresh
    and close datasets through one session.
    """

    def __init__(
        self,
        engine: Union[str, ExecutionEngine, None] = None,
        handle_pool_size: int = 0,
        faults: Union[str, "FaultPlan", None] = None,
    ) -> None:
        # Kept only because benchmarks/e2e/probes.py builds
        # Session(handle_pool_size=0); there is no pool to size.
        if handle_pool_size != 0:
            raise ValueError(
                f"handle_pool_size must be 0 (sessions pool no handles), "
                f"got {handle_pool_size}"
            )
        self.default_engine = resolve_engine(engine)
        # Re-entrant: open() resolves backends (which re-locks) and a
        # dataset closed inside it re-enters through its _forget hook.
        self._lock = make_rlock("repro.api.session.Session._lock")
        self._backends: Dict[str, StorageBackend] = {}
        self._datasets: list[Dataset] = []
        self._closed = False
        self._faults_installed = faults is not None
        self._previous_faults: Union[str, "FaultPlan", None] = None
        if faults is not None:
            from repro.faults import set_fault_plan

            self._previous_faults = set_fault_plan(faults)

    # -- backends ----------------------------------------------------------

    def backend(self, scheme: str) -> StorageBackend:
        """The session's backend instance for ``scheme`` (created on demand)."""
        with self._lock:
            if scheme not in self._backends:
                self._backends[scheme] = make_backend(scheme)
            return self._backends[scheme]

    def _resolve(self, spec: SpecLike) -> tuple[DatasetSpec, StorageBackend]:
        parsed = parse_spec(spec)
        return parsed, self.backend(parsed.scheme)

    # -- dataset lifecycle -------------------------------------------------

    def open(self, spec: SpecLike, record_trace: bool = False) -> Dataset:
        """Open the dataset at ``spec`` (read-only) and return a
        :class:`Dataset` handle; ``record_trace=True`` attaches a fresh
        access trace to it.

        Every open maps and opens the dataset's files afresh and owns them
        until the handle is closed (or the session is), so an open after a
        rewrite or an append reads the dataset as it is now.  Mapped shards
        are advised sequential, the order every algorithm in the paper
        scans its rows in.
        """
        return self._open(spec, record_trace, lambda backend, location: backend.open(location))

    def _open(
        self,
        spec: SpecLike,
        record_trace: bool,
        opener: Callable[[StorageBackend, str], StorageHandle],
    ) -> Dataset:
        """Wrap ``opener(backend, location)``'s handle in a tracked
        :class:`Dataset`."""
        self._check_open()
        parsed, backend = self._resolve(spec)
        with self._lock:
            dataset = Dataset(
                opener(backend, parsed.location),
                spec=str(parsed),
                backend=backend,
                record_trace=record_trace,
                on_close=self._forget,
            )
            self._datasets.append(dataset)
            return dataset

    def _forget(self, dataset: Dataset) -> None:
        """Stop tracking a closed dataset.

        Pruning closed datasets keeps a long-lived session's bookkeeping flat
        under the open/close churn of a serving loop.
        """
        with self._lock:
            try:
                self._datasets.remove(dataset)
            except ValueError:
                pass

    def create(
        self,
        spec: SpecLike,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        """Materialise ``data`` (and ``labels``) at ``spec``; return the spec.

        Backend-specific ``options`` are forwarded (e.g. ``shard_rows=`` for
        the sharded backend).
        """
        self._check_open()
        parsed, backend = self._resolve(spec)
        backend.create(parsed.location, data, labels, **options)
        return str(parsed)

    def refresh(
        self,
        dataset: Union[Dataset, SpecLike],
        close_previous: bool = False,
    ) -> Dataset:
        """Re-open a dataset at its latest committed generation.

        Open handles pin the generation they were opened at; ``refresh`` is
        the explicit opt-in to the new rows — it returns a *new*
        :class:`Dataset` snapshot of the latest generation.  The previous
        handle keeps serving its own snapshot unless ``close_previous``.

        Given a :class:`Dataset`, open or closed, the new snapshot is built
        from it: every sealed shard both generations list alike, whose file
        still shows the header the old snapshot checked, keeps its path,
        header and decoded labels, and only the tail and new shards are
        opened, checked and decoded.  A refresh after an append therefore
        costs the append's shards, not the dataset's — the trainer's poll.
        A dataset re-created behind the handle fails the file check and is
        read afresh.
        """
        self._check_open()
        if not isinstance(dataset, Dataset):
            return self.open(dataset)
        refreshed = self._open(
            dataset.spec, False,
            lambda backend, location: backend.open_from(location, dataset._handle),
        )
        if close_previous:
            dataset.close()
        return refreshed

    def from_arrays(
        self,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "anonymous",
        record_trace: bool = False,
    ) -> Dataset:
        """Wrap in-memory arrays as a :class:`Dataset` on the memory backend."""
        self._check_open()
        backend = self.backend(MemoryBackend.scheme)
        backend.create(name, data, labels)
        return self.open(f"memory://{name}", record_trace=record_trace)

    def info(self, spec: SpecLike) -> Dict[str, Any]:
        """Describe the dataset at ``spec`` without loading its data."""
        self._check_open()
        parsed, backend = self._resolve(spec)
        return backend.info(parsed.location)

    def exists(self, spec: SpecLike) -> bool:
        """Whether a dataset exists at ``spec``."""
        self._check_open()
        parsed, backend = self._resolve(spec)
        return backend.exists(parsed.location)

    # -- training ----------------------------------------------------------

    def fit(
        self,
        model: Any,
        dataset: Union[Dataset, SpecLike],
        y: Optional[Any] = None,
        engine: Union[str, ExecutionEngine, None] = None,
    ) -> FitResult:
        """Train ``model`` on ``dataset`` with an execution engine.

        Parameters
        ----------
        model:
            Any estimator following the ``fit(X[, y])`` convention.
        dataset:
            An open :class:`Dataset`, or a spec that is opened (and closed)
            for the duration of the call.
        y:
            Label override; defaults to the dataset's own labels.
        engine:
            Engine override — a name, or a configured instance such as
            ``StreamingEngine(chunk_rows=4096, io_workers=2)`` (the engine's
            constructor is where a scan is configured); defaults to the
            session's ``engine``.

        Returns
        -------
        FitResult
            The fitted model plus engine-specific accounting.
        """
        self._check_open()
        resolved = self.default_engine if engine is None else resolve_engine(engine)
        if isinstance(dataset, Dataset):
            return resolved.fit(model, dataset, y=y)
        with self.open(dataset) as handle:
            return resolved.fit(model, handle, y=y)

    # -- inference ---------------------------------------------------------

    def predict(
        self,
        dataset: Union[Dataset, SpecLike],
        model: Any,
        method: str = "predict",
        engine: Union[str, ExecutionEngine, None] = None,
    ) -> PredictResult:
        """Serve ``model``'s predictions over ``dataset`` with an engine.

        The inference half of :meth:`fit`: the same dataset resolution and
        engine dispatch, driving a *fitted* model's prediction method instead
        of training.  With ``engine="streaming"`` the predictions are computed
        chunk by chunk through the prefetching pipeline — a sharded dataset is
        served without ever materialising its matrix — and are bit-identical
        to the in-core ``model.predict`` result.

        Parameters
        ----------
        dataset:
            An open :class:`Dataset`, or a spec that is opened (and closed)
            for the duration of the call.
        model:
            A fitted estimator exposing ``method``.
        method:
            The prediction method to drive — ``"predict"`` (default),
            ``"predict_proba"``, ``"decision_function"``, …
        engine:
            Engine override — a name, or a configured instance such as
            ``StreamingEngine(io_workers=2, compute_workers=2)``; defaults to
            the session's ``engine``.  A streaming engine built without
            ``compute_workers`` serves chunks on
            :func:`repro.ml.base.compute_threads` workers (CPUs ÷ BLAS
            threads); an explicit count overrides it.  The predictions are
            the same bits either way.

        Returns
        -------
        PredictResult
            The predictions plus engine-specific accounting.
        """
        self._check_open()
        # fit takes (model, dataset); predict takes (dataset, model) — the
        # serving call reads "predict this dataset with that model".  Catch a
        # mirrored call before the estimator is misparsed as a dataset spec.
        if callable(getattr(dataset, "predict", None)) and not isinstance(dataset, Dataset):
            raise TypeError(
                "Session.predict takes (dataset, model) — the arguments "
                "appear to be swapped"
            )
        resolved = self.default_engine if engine is None else resolve_engine(engine)
        if isinstance(dataset, Dataset):
            return resolved.predict(model, dataset, method=method)
        with self.open(dataset) as handle:
            return resolved.predict(model, handle, method=method)

    # -- request-level serving ---------------------------------------------

    def serve(
        self,
        model_or_path: Any,
        name: str = "default",
        max_batch: int = 256,
        max_delay_ms: float = 0.0,
        max_pending: int = 1024,
        registry: Optional[Any] = None,
    ) -> Any:
        """Stand up a request-level server for ``model_or_path``.

        Where :meth:`predict` serves *scan-level* traffic (one call, one full
        dataset), the returned :class:`~repro.serve.Serving` answers
        **requests**: single rows or small batches submitted concurrently by
        many clients.  Concurrent requests are coalesced into micro-batches
        of up to ``max_batch`` rows (waiting at most ``max_delay_ms`` for
        company) and computed, one batch at a time on the server's one
        dispatcher thread, through the
        :class:`~repro.ml.base.StreamingPredictor` per-chunk path, so every
        served prediction is bit-identical to in-core ``predict``.

        Parameters
        ----------
        model_or_path:
            A fitted estimator, or a path to a saved-model JSON file
            (``m3 train --save-model``).
        name:
            Registry name the model is published under; ``Serving.swap``
            republishes it (atomic hot-swap under load).
        max_batch, max_delay_ms, max_pending:
            Micro-batching and backpressure knobs — see
            :class:`~repro.serve.ModelServer`.
        registry:
            Optional :class:`~repro.serve.ModelRegistry` to publish into and
            resolve from.  Pass the one a :class:`~repro.serve.Trainer`
            publishes to and served traffic hot-swaps to each freshly
            trained version; omitted, the server gets a private registry.

        Returns
        -------
        Serving
            ``predict_one`` / ``predict_many`` / ``submit`` (future-style) /
            ``swap`` / ``stats``, usable as a context manager.
        """
        from repro.serve import ModelRegistry, ModelServer, Serving

        self._check_open()
        # Publish (load + validate) before the server exists: a bad model
        # file must raise here, not after the dispatcher thread was spawned.
        if registry is None:
            registry = ModelRegistry()
        registry.publish(name, model_or_path)
        server = ModelServer(
            registry=registry,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_pending=max_pending,
        )
        return Serving(server, name=name)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self) -> None:
        """Close every dataset the session opened.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            # Claim the close before releasing anything so a concurrent
            # close() (or new open()) observes a consistent state.
            self._closed = True
            datasets = list(self._datasets)
        for dataset in datasets:
            dataset.close()  # prunes itself from _datasets via its hook
        with self._lock:
            self._datasets = []
        if self._faults_installed:
            from repro.faults import set_fault_plan

            set_fault_plan(self._previous_faults)
            self._faults_installed = False

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else f"{len(self._datasets)} dataset(s) open"
        return (
            f"Session(engine={self.default_engine.name!r}, "
            f"backends={sorted(self._backends) or '[]'}, {status})"
        )
