"""The trainer daemon: tail committed generations, train deltas, publish.

This closes the live train→publish loop over an appendable dataset: a
:class:`Trainer` polls a ``shard://`` dataset's manifest generation, and when
an append commits it opens the new generation's snapshot, reads **only the
delta rows** — ``[trained_rows, committed_rows)`` — on the polling thread
(no reader thread; each coded block decoded once), trains them through
``partial_fit`` on the chunks of a :func:`~repro.api.chunks.plan_chunks`
``row_range`` plan bound to that generation, then publishes a deep-copied
snapshot of the refreshed model as the next
:class:`~repro.serve.registry.ModelVersion`.
Point the trainer at the *same* :class:`~repro.serve.registry.ModelRegistry` a
:class:`~repro.serve.server.ModelServer` resolves from and every in-flight
request keeps its exactly-one-version guarantee across publishes: a
micro-batch dispatched while a publish lands is served entirely by the old
version or entirely by the new one.

The published model is a :func:`copy.deepcopy` of the trainer's working
estimator, so serving traffic never observes a model mid-``partial_fit`` —
the trainer keeps mutating its private copy while the registry serves frozen
snapshots.

The trainer keeps one snapshot between polls and opens the next one from it
(``Session.refresh(prev)``): the sealed shards' paths, checked headers and
decoded labels carry over, so a poll opens, checks and decodes only the
shards the append wrote, and costs the delta, not the dataset.  The kept
snapshot is closed at the end of its poll: what the trainer holds between
polls is memory only — the sealed shards' headers and, over coded shards,
their int64 labels (8 B per row; raw shards map their labels afresh) — and
no descriptor.  An open one would pin the tail file the next append
replaces, and the poll that closed it would pay for releasing that file's
pages, which the append pays otherwise.

.. code-block:: python

    with session.serve(model, name="live") as serving:
        trainer = Trainer(
            "shard:///data/clicks",
            model,
            registry=serving.server.registry,
            name="live",
        )
        trainer.start()          # background thread: poll, train, publish
        ...
        trainer.stop()

The CLI equivalent is ``m3 traind`` — the same loop in the foreground.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.api.chunks import DEFAULT_CHUNK_BYTES, ChunkPlan, plan_chunks
from repro.api.sharded import ShardedLabels, manifest_generation, read_manifest
from repro.faults import InjectedFault, maybe_fire, observing_retries, policy_for
from repro.api.storage import parse_spec
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.server import DEFAULT_MODEL_NAME

#: Seconds between manifest polls in :meth:`Trainer.run` / :meth:`Trainer.start`.
POLL_S = 0.5


def _read_pieces(plan: ChunkPlan) -> List[List[Tuple[int, int]]]:
    """The plan's chunks in runs of at most :data:`DEFAULT_CHUNK_BYTES`
    (a chunk larger than that is a run of its own)."""
    pieces: List[List[Tuple[int, int]]] = []
    for start, stop in plan.bounds:
        if pieces and (stop - pieces[-1][0][0]) * plan.row_bytes <= DEFAULT_CHUNK_BYTES:
            pieces[-1].append((start, stop))
        else:
            pieces.append([(start, stop)])
    return pieces


class CursorPastDataError(ValueError):
    """:meth:`Trainer.mark_trained` was given more rows than the dataset has
    committed: a cursor there would skip the rows between the two counts for
    good once appends reach it."""


@dataclass(frozen=True)
class TrainUpdate:
    """One trainer poll that found (and trained) new rows.

    Attributes
    ----------
    generation:
        The manifest generation the trainer caught up to.
    version:
        The :class:`ModelVersion` the refreshed model was published as.
    rows:
        Delta rows consumed by ``partial_fit`` this poll.
    chunks:
        Plan chunks the delta was trained in (one ``partial_fit`` each).
    train_s:
        Wall time of the delta training pass.
    """

    generation: int
    version: ModelVersion
    rows: int
    chunks: int
    train_s: float


@dataclass
class TrainerStats:
    """Cumulative accounting of a trainer's poll/train/publish loop."""

    polls: int = 0
    updates: int = 0
    rows_trained: int = 0
    chunks: int = 0
    train_s: float = 0.0
    last_generation: Optional[int] = None
    last_version: Optional[str] = None
    #: Reads of a poll that failed transiently and were retried: the
    #: generation poll (``trainer.poll`` budget), and the snapshot's label
    #: segments and the delta rows (``read.pread``).
    retries: int = 0
    #: Retried errors of either kind that an active fault plan injected.
    faults_injected: int = 0
    history: List[TrainUpdate] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """The counters as one flat dict (everything but ``history``)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "history"}


class Trainer:
    """Tails an appendable dataset and publishes freshly trained models.

    Parameters
    ----------
    dataset:
        Spec of the appendable dataset to tail (``shard://...``, a path, or a
        :class:`~repro.api.Dataset` whose spec is reused).
    model:
        A streaming estimator (``partial_fit``) used as the trainer's working
        copy.  It may already be fitted — the trainer then extends it with
        deltas only — or fresh, in which case the first poll trains it on
        every committed row before the first publish.
    registry:
        The registry to publish into.  Pass the serving side's registry
        (``serving.server.registry``) to close the serve/train loop; a
        private registry is created when omitted.
    name:
        Registry name versions are published under.
    session:
        Session that opens and refreshes generation snapshots; a private one
        is created (and closed by :meth:`close`) when omitted.
    classes:
        Class labels forwarded to every ``partial_fit`` call.  ``None``
        derives them from the labels of the first snapshot trained on —
        appends that introduce *new* classes later need them declared here
        up front, exactly as scikit-style ``partial_fit`` requires.
    """

    def __init__(
        self,
        dataset: Any,
        model: Any,
        registry: Optional[ModelRegistry] = None,
        name: str = DEFAULT_MODEL_NAME,
        session: Optional[Any] = None,
        classes: Optional[Any] = None,
    ) -> None:
        if not hasattr(model, "partial_fit"):
            raise TypeError(
                f"{type(model).__name__} does not implement partial_fit; the "
                f"trainer daemon needs a streaming estimator"
            )
        spec = getattr(dataset, "spec", dataset)
        self.spec = parse_spec(spec)
        if self.spec.scheme != "shard":
            raise ValueError(
                f"the trainer tails appendable shard:// datasets, got "
                f"{self.spec.scheme}://"
            )
        self.model = model
        self.registry = registry if registry is not None else ModelRegistry()
        self.name = name
        self.classes = classes
        self.stats = TrainerStats()
        self._session = session
        self._owns_session = session is None
        # Rank 60: held across poll→train→publish, which nests Session._lock
        # (70) for snapshot opens and ModelRegistry._lock (80) for the
        # publish — strictly increasing, per the LOCK_ORDER registry.
        self._lock = make_lock("repro.serve.trainer.Trainer._lock")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # Catch-up cursor: rows [0, _trained_rows) have been consumed by
        # partial_fit; _trained_generation is the last one published.
        self._trained_rows = 0
        self._trained_generation: Optional[int] = None
        # The last snapshot opened, closed, kept so the next poll refreshes
        # from it.
        self._snapshot: Optional[Any] = None

    # -- cursor --------------------------------------------------------------

    @property
    def trained_rows(self) -> int:
        """Rows consumed by ``partial_fit`` so far (the catch-up cursor)."""
        with self._lock:
            return self._trained_rows

    @property
    def trained_generation(self) -> Optional[int]:
        """The last generation trained and published (``None`` = none yet)."""
        with self._lock:
            return self._trained_generation

    def mark_trained(self, rows: int, generation: Optional[int] = None) -> None:
        """Advance the cursor without training — for a model that was already
        fitted on the dataset's first ``rows`` rows before the trainer took
        over (e.g. the offline ``m3 train`` artifact now being served).

        ``rows`` may not exceed the rows committed at ``generation`` (default:
        the latest generation); :class:`CursorPastDataError` names both counts.
        """
        if rows < 0:
            raise ValueError(f"trained rows must be >= 0, got {rows}")
        location = self.spec.location
        committed = 0 if manifest_generation(location) is None else read_manifest(
            location, generation
        ).rows
        if rows > committed:
            raise CursorPastDataError(
                f"{location} has committed {committed} row(s), fewer than the "
                f"{rows} marked as trained"
            )
        with self._lock:
            self._trained_rows = int(rows)
            if generation is not None:
                self._trained_generation = int(generation)

    # -- the poll→train→publish step -----------------------------------------

    def _session_handle(self) -> Any:
        if self._session is None:
            from repro.api.session import Session

            self._session = Session()
        return self._session

    def _derive_classes(self, labels: Any) -> Optional[np.ndarray]:
        if self.classes is not None:
            return np.asarray(self.classes)
        if labels is None:
            return None
        if isinstance(labels, ShardedLabels):
            self.classes = labels.unique()
        else:
            self.classes = np.unique(np.asarray(labels))
        return self.classes

    def _read_generation(self) -> Optional[int]:
        """One generation poll attempt (the ``trainer.poll`` injection site).

        The site fires *before* :func:`manifest_generation` because that
        helper deliberately swallows ``OSError`` (an absent ``CURRENT`` file
        is a normal state, not a failure) — a fault injected inside it would
        vanish instead of exercising the retry path.
        """
        maybe_fire("trainer.poll", str(self.spec.location))
        return manifest_generation(self.spec.location)

    def _on_retry(self, attempt: int, error: BaseException) -> None:  # lint: caller-holds-lock
        self.stats.retries += 1
        if isinstance(error, InjectedFault):
            self.stats.faults_injected += 1

    def poll_once(self) -> Optional[TrainUpdate]:
        """One poll: train on any committed delta rows and publish.

        Returns the :class:`TrainUpdate` when new rows were trained and a
        version published, ``None`` when the dataset is absent, unchanged, or
        the new generation added no rows (generation numbers can advance
        without net new rows only through recovery edge cases; nothing to
        train on means nothing to publish).
        """
        with self._lock, observing_retries(self._on_retry):
            return self._poll_locked()

    def _poll_locked(self) -> Optional[TrainUpdate]:  # lint: caller-holds-lock
        self._check_open()
        self.stats.polls += 1
        committed = policy_for("trainer.poll").call(self._read_generation, site="trainer.poll")
        if committed is None:
            return None  # dataset not created yet: keep polling
        if self._trained_generation is not None and committed == self._trained_generation:
            return None
        session = self._session_handle()
        # Open the *latest* snapshot — exactly one committed generation,
        # possibly newer than `committed` if another append just landed; we
        # train to whatever snapshot we got and record its generation — from
        # the one the last poll opened.
        if self._snapshot is None:
            dataset = session.open(self.spec)
        else:
            dataset = session.refresh(self._snapshot)
        self._snapshot = dataset
        try:
            generation = dataset.generation
            if generation is None:
                raise RuntimeError(
                    f"{self.spec.location} is not a generation-versioned "
                    f"dataset; the trainer cannot tail it"
                )
            total_rows = dataset.shape[0]
            if generation == self._trained_generation or total_rows <= self._trained_rows:
                # A generation that added no net rows still moves the cursor,
                # so recovery-trimmed tails are not re-polled forever.
                self._trained_generation = generation
                self.stats.last_generation = generation
                return None
            update = self._train_delta(dataset, generation, total_rows)
            self.stats.updates += 1
            self.stats.rows_trained += update.rows
            self.stats.chunks += update.chunks
            self.stats.train_s += update.train_s
            self.stats.last_generation = generation
            self.stats.last_version = update.version.key
            self.stats.history.append(update)
            return update
        finally:
            dataset.close()

    def _train_delta(self, dataset: Any, generation: int, total_rows: int) -> TrainUpdate:  # lint: caller-holds-lock
        """Train ``[trained_rows, total_rows)`` through partial_fit, publish.

        The delta is read on this thread, each run of plan chunks
        (:func:`_read_pieces`) as one ``matrix[lo:hi]`` under the
        ``read.pread`` retry budget, and trained one ``partial_fit`` per plan
        chunk, as a chunk stream over the plan would train it.  The cursor
        passes each run once it is trained; a read that fails for good
        publishes nothing.
        """
        matrix, labels = dataset.matrix, dataset.labels
        classes = self._derive_classes(labels)
        first = self._trained_rows
        plan = plan_chunks(matrix, row_range=(first, total_rows))
        began = time.perf_counter()
        for piece in _read_pieces(plan):
            lo, hi = piece[0][0], piece[-1][1]
            X, y = policy_for("read.pread").call(
                lambda: (matrix[lo:hi], None if labels is None else np.asarray(labels[lo:hi])),
                site="read.pread",
            )
            for start, stop in piece:
                rows = slice(start - lo, stop - lo)
                if y is None:
                    self.model.partial_fit(X[rows])
                else:
                    self.model.partial_fit(X[rows], y[rows], classes=classes)
            self._trained_rows = hi
        train_s = time.perf_counter() - began
        # Publish a frozen snapshot: the registry's validation and swap are
        # atomic, and the trainer's working copy stays private to keep
        # serving reads isolated from the next delta's partial_fit calls.
        version = self.registry.publish(self.name, copy.deepcopy(self.model))
        self._trained_generation = generation
        return TrainUpdate(
            generation=generation,
            version=version,
            rows=total_rows - first,
            chunks=plan.num_chunks,
            train_s=train_s,
        )

    # -- the daemon loop -----------------------------------------------------

    def run(
        self,
        max_polls: Optional[int] = None,
        on_update: Optional[Any] = None,
    ) -> int:
        """Poll in the calling thread until :meth:`stop` (or ``max_polls``).

        ``on_update`` is called with each :class:`TrainUpdate` as it is
        published (the CLI's reporting hook).  Returns the number of updates
        published.
        """
        published = 0
        polls = 0
        while not self._stop.is_set():
            update = self.poll_once()
            if update is not None:
                published += 1
                if on_update is not None:
                    on_update(update)
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            # Event.wait is the poll pacing *and* the stop latch: a stop()
            # during the sleep wakes the loop immediately.
            self._stop.wait(POLL_S)
        return published

    def start(self, on_update: Optional[Any] = None) -> "Trainer":
        """Run the poll loop in a background daemon thread.

        ``on_update`` is forwarded to :meth:`run` — it fires on the trainer
        thread, so keep it quick and thread-safe.
        """
        with self._lock:
            self._check_open()
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self.run,
                kwargs={"on_update": on_update},
                name="m3-trainer",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the loop to exit and join the background thread."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        self._thread = None

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:  # lint: caller-holds-lock
        if self._closed:
            raise RuntimeError("trainer is closed")

    def close(self) -> None:
        """Stop the loop, drop the kept snapshot and release the private
        session (idempotent)."""
        self.stop()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._snapshot = None
            session = self._session if self._owns_session else None
            self._session = None
        if session is not None:
            session.close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            cursor = f"rows={self._trained_rows}, gen={self._trained_generation}"
        return (
            f"Trainer({self.spec.scheme}://{self.spec.location}, "
            f"name={self.name!r}, {cursor})"
        )
