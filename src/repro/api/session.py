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
``"mmap://file.m3"``); swapping execution is one keyword
(``engine="streaming"``) — the estimator code is untouched, which is the
paper's transparency claim carried through every backend and engine.  A
dataset opened with ``record_trace=True`` hands its access trace to
``FitResult.trace`` on either engine, for
:class:`~repro.vmem.VirtualMemorySimulator` to replay at paper scale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

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
from repro.core.advice import AccessAdvice

PoolKey = Tuple[str, str, str, Any]  # (scheme, location, mode, advice)


class _PoolEntry:
    """One pooled backend handle: the handle, its users, its freshness token."""

    __slots__ = ("key", "handle", "refs", "fingerprint", "invalidated")

    def __init__(self, key: PoolKey, handle: StorageHandle, fingerprint: Any) -> None:
        self.key = key
        self.handle = handle
        self.refs = 0
        self.fingerprint = fingerprint
        self.invalidated = False


class HandlePool:
    """LRU pool of open :class:`StorageHandle`\\ s, keyed by
    ``(scheme, location, mode, advice)``.

    Repeated :meth:`Session.open` calls on a hot dataset reuse the pooled
    handle (one set of memory maps, refcounted across the `Dataset` handles
    sharing it) instead of re-opening files.  Correctness rules:

    * an entry is **invalidated** — removed from the reuse map — whenever a
      dataset sharing it is closed or flushed, or the location is rewritten
      through :meth:`Session.create`; the underlying handle is only really
      closed once its last user closes;
    * before reuse, the backend's ``fingerprint`` (file mtime/size) is
      compared against the one captured at open, so a dataset rewritten on
      disk *behind the session's back* is re-opened, never served from a
      stale memory map;
    * at most ``capacity`` entries are tracked; opening beyond that drops the
      least-recently-used entry from the reuse map (its handle stays alive
      with its datasets and closes with them).

    A handle in the reuse map is always open.  When its fingerprint has
    moved (an append committed), the new handle is opened *from* it — the
    backend shares the sealed state both snapshots hold — and only then is
    the stale entry dropped, so it stays open for as long as that takes.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PoolKey, _PoolEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PoolKey) -> bool:
        return key in self._entries

    def acquire(
        self,
        key: PoolKey,
        opener: Any,
        fingerprint: Any,
        previous: Optional[StorageHandle] = None,
    ) -> _PoolEntry:
        """A pooled entry for ``key``: reused when fresh, opened otherwise.

        ``opener(earlier)`` builds a new handle from ``earlier``, a handle
        on an older snapshot of the key: ``previous`` (the caller's) if
        given, else the stale entry being replaced, else ``None``.
        """
        entry = self._entries.get(key)
        # Taken before any open: a change committed while the handle is
        # being opened then makes the entry look stale, never fresh.
        token = fingerprint() if self.capacity else None
        stale = None
        if entry is not None:
            if token == entry.fingerprint:
                entry.refs += 1
                self._entries.move_to_end(key)
                return entry
            stale = entry  # the dataset changed on disk
        if previous is None and stale is not None:
            previous = stale.handle
        try:
            handle = opener(previous)
        finally:
            if stale is not None:
                self._remove(stale)
        if self.capacity == 0:
            entry = _PoolEntry(key, handle, None)
            entry.refs += 1
            entry.invalidated = True  # untracked: close with its last user
            return entry
        entry = _PoolEntry(key, handle, token)
        entry.refs += 1
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.invalidated = True
            self._close_if_unused(evicted)
        return entry

    def release(self, entry: _PoolEntry) -> None:
        """A dataset sharing ``entry`` closed: invalidate, refcount, close."""
        entry.refs = max(0, entry.refs - 1)
        self._remove(entry)

    def invalidate(self, entry: _PoolEntry) -> None:
        """Drop ``entry`` from the reuse map (live users keep their handle)."""
        self._pop_if_current(entry)
        entry.invalidated = True

    def invalidate_location(self, scheme: str, location: str) -> None:
        """Drop every entry for ``location`` (any mode) — it was rewritten."""
        for key in [k for k in self._entries if k[0] == scheme and k[1] == location]:
            entry = self._entries.pop(key)
            entry.invalidated = True
            self._close_if_unused(entry)

    def close_idle(self) -> None:
        """Close every tracked handle that no dataset is using any more."""
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.refs == 0:
                del self._entries[key]
                entry.invalidated = True
                self._close_handle(entry)

    def _pop_if_current(self, entry: _PoolEntry) -> None:
        """Drop ``entry`` from the map only if it is still the mapped entry.

        A key may have been re-opened with a fresh entry after this one was
        invalidated; releasing the old entry must not evict the new one.
        """
        if self._entries.get(entry.key) is entry:
            del self._entries[entry.key]

    def _remove(self, entry: _PoolEntry) -> None:
        self._pop_if_current(entry)
        entry.invalidated = True
        self._close_if_unused(entry)

    def _close_if_unused(self, entry: _PoolEntry) -> None:
        if entry.refs == 0 and entry.invalidated:
            self._close_handle(entry)

    @staticmethod
    def _close_handle(entry: _PoolEntry) -> None:
        if entry.handle.closer is not None:
            entry.handle.closer()


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
        Capacity of the LRU :class:`HandlePool` behind :meth:`open`.  While a
        dataset spec is hot (opened handles not yet all closed), further
        ``open`` calls share its backend handle instead of re-mapping files —
        the high-QPS serving path.  ``0`` disables pooling.
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

    Sessions are thread-safe: the dataset list, backend cache and handle
    pool are guarded by one re-entrant session lock, so a
    :class:`~repro.serve.ModelServer`'s dispatcher threads can resolve
    dataset specs through the same session that clients use.
    """

    def __init__(
        self,
        engine: Union[str, ExecutionEngine, None] = None,
        handle_pool_size: int = 8,
        faults: Union[str, "FaultPlan", None] = None,
    ) -> None:
        self.default_engine = resolve_engine(engine)
        # Re-entrant: open() resolves backends (which re-locks) and close()
        # re-enters through each dataset's _forget hook.
        self._lock = make_rlock("repro.api.session.Session._lock")
        self._backends: Dict[str, StorageBackend] = {}
        self._datasets: list[Dataset] = []
        self._pool = HandlePool(handle_pool_size)
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

    def open(
        self,
        spec: SpecLike,
        mode: str = "r",
        advice: AccessAdvice = AccessAdvice.SEQUENTIAL,
        record_trace: bool = False,
    ) -> Dataset:
        """Open the dataset at ``spec`` and return a :class:`Dataset` handle.

        ``mode`` is the ``numpy.memmap`` mode (read-only by default),
        ``advice`` the access advice applied to the mapping (sequential, the
        order every algorithm in the paper scans its rows), and
        ``record_trace=True`` attaches a fresh access trace to the handle.

        Handles are served through the session's :class:`HandlePool`: while a
        spec is hot, repeated opens share one set of backend resources.  The
        pool entry is invalidated whenever a sharing dataset is closed or
        flushed (and revalidated against the backend's freshness fingerprint
        on reuse), so a dataset file rewritten between opens is always
        re-opened, never served stale.
        """
        return self._open(spec, mode, advice, record_trace)

    def _open(
        self,
        spec: SpecLike,
        mode: str,
        advice: AccessAdvice,
        record_trace: bool,
        previous: Optional[StorageHandle] = None,
    ) -> Dataset:
        """:meth:`open`, from ``previous`` (a handle on an earlier snapshot
        of ``spec``) when a new handle has to be opened."""
        self._check_open()
        parsed, backend = self._resolve(spec)
        # Advice is part of the key: madvise applies to the whole mapping, so
        # handles are only shared between opens that want the same advice.
        with self._lock:
            entry = self._pool.acquire(
                (parsed.scheme, parsed.location, mode, advice),
                opener=lambda earlier: backend.open_from(
                    parsed.location, earlier, mode=mode
                ),
                fingerprint=lambda: backend.fingerprint(parsed.location),
                previous=previous,
            )
            dataset = Dataset(
                entry.handle,
                spec=str(parsed),
                backend=backend,
                advice=advice,
                record_trace=record_trace,
                on_close=lambda closed: self._forget(closed, entry),
                on_flush=lambda _dataset: self._invalidate(entry),
            )
            self._datasets.append(dataset)
            return dataset

    def _forget(self, dataset: Dataset, entry: _PoolEntry) -> None:
        """Release ``dataset``'s pool entry and stop tracking it.

        Pruning closed datasets keeps a long-lived session's bookkeeping flat
        under the open/close churn of a serving loop.
        """
        with self._lock:
            self._pool.release(entry)
            try:
                self._datasets.remove(dataset)
            except ValueError:
                pass

    def _invalidate(self, entry: _PoolEntry) -> None:
        """Drop ``entry`` from the handle pool's reuse map (flush hook)."""
        with self._lock:
            self._pool.invalidate(entry)

    def create(
        self,
        spec: SpecLike,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        """Materialise ``data`` (and ``labels``) at ``spec``; return the spec.

        Backend-specific ``options`` are forwarded (e.g. ``shard_rows=`` for
        the sharded backend).  Any pooled handles for the location are
        invalidated — the dataset was just rewritten.
        """
        self._check_open()
        parsed, backend = self._resolve(spec)
        backend.create(parsed.location, data, labels, **options)
        with self._lock:
            self._pool.invalidate_location(parsed.scheme, parsed.location)
        return str(parsed)

    def refresh(
        self,
        dataset: Union[Dataset, SpecLike],
        close_previous: bool = False,
    ) -> Dataset:
        """Re-open a dataset at its latest committed generation.

        Open handles pin the generation they were opened at (the handle
        pool's fingerprint is the generation number, so a committed append
        makes every pooled entry for the spec stale); ``refresh`` is the
        explicit opt-in to the new rows — it returns a *new*
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
            dataset.spec, "r", AccessAdvice.SEQUENTIAL, False, previous=dataset._handle
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
            ``StreamingEngine(io_workers=0, compute_workers=2)``; defaults to
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
        workers: int = 1,
        max_pending: int = 1024,
        registry: Optional[Any] = None,
    ) -> Any:
        """Stand up a request-level server for ``model_or_path``.

        Where :meth:`predict` serves *scan-level* traffic (one call, one full
        dataset), the returned :class:`~repro.serve.Serving` answers
        **requests**: single rows or small batches submitted concurrently by
        many clients.  Concurrent requests are coalesced into micro-batches
        of up to ``max_batch`` rows (waiting at most ``max_delay_ms`` for
        company) and computed through the
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
        max_batch, max_delay_ms, workers, max_pending:
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
        # file must raise here, not after dispatcher threads were spawned.
        if registry is None:
            registry = ModelRegistry()
        registry.publish(name, model_or_path)
        server = ModelServer(
            registry=registry,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            workers=workers,
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
        """Close every dataset the session opened.  Idempotent.

        Idle pooled handles are closed with the session.
        """
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
            self._pool.close_idle()
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
