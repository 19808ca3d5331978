"""Base classes and the matrix protocol used by every estimator.

Estimators follow a small, scikit-learn-like convention — ``fit`` returns
``self``, learned attributes end in an underscore — but are deliberately
written to touch their inputs only through contiguous row slicing so that
in-memory arrays and memory-mapped matrices are interchangeable (the M3
transparency property).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, Tuple

import numpy as np

# The fan-out lives below every package that uses it (storage codes blocks
# with it too); estimators and engines import it from here.
from repro.fanout import COMPUTE_THREAD_PREFIX, available_cpus, map_ordered


def as_matrix(X: Any) -> Any:
    """Validate that ``X`` looks like a 2-D matrix supporting row slicing.

    Accepts ``numpy.ndarray``, ``numpy.memmap``, M3 ``MmapMatrix`` or anything
    else exposing ``shape``, ``dtype`` and ``__getitem__``.  Returns the input
    unchanged (never copies) so memory-mapped data stays memory mapped.
    """
    if not hasattr(X, "shape") or not hasattr(X, "__getitem__"):
        X = np.asarray(X)
    if len(X.shape) != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {tuple(X.shape)}")
    return X


def as_labels(y: Any, n_rows: int) -> np.ndarray:
    """Check ``y`` is 1-D with one entry per row; return ``np.asarray(y)``.

    The dtype is left as given: estimators that need integer classes
    encode them themselves.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    if y.shape[0] != n_rows:
        raise ValueError(f"labels have {y.shape[0]} entries but X has {n_rows} rows")
    return y


def iter_row_chunks(X: Any, chunk_size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` bounds covering the rows of ``X`` in order.

    This is the only access pattern estimators use, and it is deliberately a
    sequential scan — the pattern the OS read-ahead (and our simulator's
    read-ahead) optimises for.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    n_rows = X.shape[0]
    for start in range(0, n_rows, chunk_size):
        yield start, min(start + chunk_size, n_rows)


def blas_threads() -> int:
    """Threads one BLAS call uses, read the way the library reads it at load.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else every CPU the
    process may run on.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(variable, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return available_cpus()


def _compute_threads() -> int:
    """Worker threads a full-matrix pass fans its chunks over (never below 1).

    CPUs available to the process ÷ :func:`blas_threads`: the cores a BLAS
    call leaves idle.  There is deliberately no parameter, flag or variable of
    ours behind it — see :func:`map_row_chunks` for the measurement.
    """
    return max(1, available_cpus() // blas_threads())


def compute_threads() -> int:
    """The count :func:`map_row_chunks` uses, for engines and ``m3 info`` to report."""
    return _compute_threads()


def map_row_chunks(
    X: Any, chunk_size: int, fn: Callable[[int, int, Any], Any]
) -> Iterator[Tuple[int, int, Any]]:
    """Yield ``(start, stop, fn(start, stop, chunk))`` in row order.

    The ordered, chunk-parallel map under every full-matrix pass (objective
    gradients, Lloyd's assignment pass, seeding, inertia, every prediction
    method).  ``X`` is a matrix or a **chunk source**: a zero-argument
    callable returning a context-managed iterable of chunks with ``start``,
    ``stop``, ``X`` and ``release()`` — a
    :class:`~repro.api.chunks.ChunkStream` opener, which is how a streamed
    fit hands a model its final read pass.  What makes the map invisible to
    callers:

    * a matrix is **sliced on the calling thread, in order**, into chunks of
      ``chunk_size`` rows — an ``MmapMatrix``'s access trace and a compressed
      matrix's block decode stay exactly as sequential as the serial loop's;
      only ``fn`` runs on workers, where the page faults of a cold mapping
      overlap with compute;
    * a source is opened once and drawn in its own order: its readers own
      the reads, the decodes and the chunk bounds, ``chunk_size`` is not
      used, and each chunk is released once ``fn`` has run on it — or, if a
      failure cancels it first, without running;
    * results are **consumed in chunk order**, so a caller that accumulates
      ``total += result`` adds in the serial loop's order and every fitted
      attribute is bit-identical at any worker count;
    * at most ``workers + 1`` chunks are submitted and not yet consumed;
    * a matrix of one chunk (every ``partial_fit``, every served micro-batch)
      and a call made from inside a worker run inline — no pool, no thread.

    **Compute threads.**  There is no knob: workers = CPUs available to the
    process (``os.sched_getaffinity``) ÷ the BLAS thread count
    (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else the CPU count),
    floored at 1.  Dividing is what the measurement says: on a 2-CPU box one
    softmax objective pass over a 411 MB map is 175 ms serial and 100 ms on two
    workers with BLAS pinned to one thread, but with OpenBLAS left at two
    threads the same two-worker pass is 197 ms against 170 ms serial — its
    threaded gemm serialises concurrent callers and gains nothing on these
    10-column products.  So a process that leaves BLAS unpinned keeps the
    serial loop exactly, and ``OPENBLAS_NUM_THREADS=1`` (the recommended
    setting for ``m3 train`` / ``m3 predict``) hands every core to this map.
    """
    if callable(X):
        return _map_source_chunks(X, fn)
    workers = _compute_threads() if X.shape[0] > chunk_size else 1
    items = ((start, stop, X[start:stop]) for start, stop in iter_row_chunks(X, chunk_size))
    return map_ordered(
        lambda item: (item[0], item[1], fn(*item)), items, workers, workers + 1
    )


def _map_source_chunks(
    source: Callable[[], Any], fn: Callable[[int, int, Any], Any]
) -> Iterator[Tuple[int, int, Any]]:
    """:func:`map_row_chunks` over a chunk source."""
    workers = _compute_threads()

    def run(chunk: Any) -> Tuple[int, int, Any]:
        try:
            return chunk.start, chunk.stop, fn(chunk.start, chunk.stop, chunk.X)
        finally:
            chunk.release()

    with source() as chunks:
        yield from map_ordered(
            run, chunks, workers, workers + 1, abandon=lambda chunk: chunk.release()
        )


def stack_row_chunks(
    X: Any,
    chunk_size: int,
    fn: Callable[[np.ndarray], np.ndarray],
    trailing: Tuple[int, ...] = (),
    dtype: Any = np.float64,
) -> np.ndarray:
    """Row-wise ``fn`` over ``X`` through :func:`map_row_chunks`, as one array.

    ``fn`` gets each chunk as a float64 array and returns one result row per
    chunk row; each block is written where it was computed, into its disjoint
    ``out[start:stop]`` slice of a preallocated ``(n_rows, *trailing)`` array
    of ``dtype``, so nothing the size of ``X`` is held beyond that output.
    """
    out = np.empty((X.shape[0], *trailing), dtype=dtype)

    def fill(start: int, stop: int, chunk: Any) -> None:
        out[start:stop] = fn(np.asarray(chunk, dtype=np.float64))

    for _ in map_row_chunks(X, chunk_size, fill):
        pass
    return out


class BaseEstimator:
    """Base class providing parameter introspection and representation."""

    def get_params(self) -> Dict[str, Any]:
        """Return constructor parameters (attributes not ending in ``_``)."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.endswith("_") and not key.startswith("_")
        }

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor parameters by keyword; unknown names raise."""
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"{type(self).__name__} has no parameter {key!r}")
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

    def _check_fitted(self, attribute: str) -> None:
        if not hasattr(self, attribute):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )


class NotResumableError(RuntimeError):
    """``partial_fit`` on a fitted estimator whose streaming state is gone.

    ``save_model`` writes fitted attributes, not the accumulators the SGD and
    naive-Bayes estimators train from; ``MiniBatchKMeans`` resumes after a
    load because its ``cluster_centers_`` / ``counts_`` *are* that state.
    """


class StreamingEstimator:
    """Mixin for estimators that train as chunk-streaming consumers.

    The contract has one required method and three optional hooks:

    ``partial_fit(X, y=None, classes=None)``
        Consume one row chunk, updating internal state (and the public fitted
        attributes, so a partially trained model is already usable).
        Classifiers need ``classes`` on (or before) the first call when the
        first chunk may not contain every class.
    ``streaming_passes``
        How many passes over the data one full training run makes
        (epochs for SGD-style models, 1 for single-pass accumulators).
    ``_end_streaming_pass(epoch)``
        Called after each pass; return ``True`` to stop early (convergence).
    ``finalize_streaming(X)``
        Called once after the last pass with the full dataset as a matrix or
        a chunk source (see :func:`map_row_chunks`), for summary attributes
        that need a final read pass (``inertia_``, ``result_``); must be
        cheap or a sequential scan.  The streaming engine hands a source
        that opens one more pass of its own stream when called, so a model
        that never reads it costs no pass.

    :meth:`fit_streaming` ties these together, and is the *single* training
    loop shared by in-core ``fit`` (which feeds it in-memory chunks) and the
    out-of-core streaming engine (which feeds it prefetched chunks from any
    storage backend) — the M3 transparency property, now for training loops.
    """

    _streaming_state: Any = None

    @property
    def streaming_passes(self) -> int:
        """Number of passes over the data a full training run makes."""
        return 1

    def partial_fit(self, X: Any, y: Any = None, classes: Any = None) -> "StreamingEstimator":
        """Consume one chunk of rows.  Subclasses must implement this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support chunk-streaming training"
        )

    def fit_streaming(
        self,
        make_stream: Any,
        classes: Any = None,
        finalize: Any = None,
    ) -> "StreamingEstimator":
        """Train by looping ``partial_fit`` over a restartable chunk stream.

        Parameters
        ----------
        make_stream:
            Zero-argument callable returning a fresh iterable of
            ``(X_chunk, y_chunk)`` pairs — one call per pass.
        classes:
            Class labels forwarded to every ``partial_fit`` call.
        finalize:
            Optional matrix or chunk source passed to
            :meth:`finalize_streaming`.
        """
        self._reset_streaming()
        epoch = 0
        for epoch in range(1, max(1, int(self.streaming_passes)) + 1):
            for chunk_X, chunk_y in make_stream():
                self.partial_fit(chunk_X, chunk_y, classes=classes)
            if self._end_streaming_pass(epoch):
                break
        self._streaming_epochs_ = epoch
        if finalize is not None:
            self.finalize_streaming(finalize)
        return self

    def check_resumable(self) -> None:
        """Raise :class:`NotResumableError` if the next ``partial_fit`` would
        re-seed a fitted model from zeros instead of continuing it."""
        if self._streaming_state is None and hasattr(self, "classes_"):
            raise NotResumableError(
                f"this {type(self).__name__} is fitted but holds no streaming "
                f"state (load_model restores what predicts, not what partial_fit "
                f"continues from): training it further would restart from zeros; "
                f"only MiniBatchKMeans resumes after a load — refit, or keep the "
                f"live object"
            )

    def _reset_streaming(self) -> None:
        """Forget accumulated streaming state so training starts fresh."""
        self._streaming_state = None
        # What check_resumable reads: a refit is a fresh start, not a resume.
        self.__dict__.pop("classes_", None)

    def _end_streaming_pass(self, epoch: int) -> bool:
        """Pass-boundary hook; return ``True`` to stop early."""
        return False

    def finalize_streaming(self, X: Any) -> None:
        """Post-training hook for attributes needing a final look at ``X``."""
        return None


class StreamingPredictor:
    """Mixin for serving fitted estimators chunk by chunk.

    The training half of the streaming story is :class:`StreamingEstimator`
    (``partial_fit`` over a restartable chunk stream); this is the inference
    half.  Every estimator whose prediction methods are *row-wise* — the
    prediction for a row depends only on that row and the fitted parameters,
    which is true of all the estimators in :mod:`repro.ml` — gets streaming
    inference for free from the two defaults here:

    ``predict_chunk(X, method=...)``
        Predictions for one row block, by delegating to the estimator's own
        in-core method (``predict``, ``predict_proba``, …).  Because the
        methods are row-wise, per-chunk results are bit-identical to the
        corresponding rows of an in-core full-matrix call.
    ``predict_streaming(chunks, n_rows, method=..., workers=..., out=...)``
        The one body a stream is predicted through: ``predict_chunk`` over
        every chunk, fanned over :func:`map_ordered` (the plain serial loop
        at ``workers=1``), each result scattered into its disjoint slice of a
        single output buffer preallocated from the first chunk's geometry —
        so serving a billion-row stream holds a few chunks of input and one
        output vector, never the stitched matrix.

    Estimators with cheaper chunk-local paths (or non-row-wise methods) can
    override either hook; the streaming engine only relies on this protocol.
    """

    def predict_chunk(self, X: Any, method: str = "predict") -> np.ndarray:
        """Predictions for one row block via the in-core ``method``."""
        if method.startswith("_"):
            raise ValueError(f"invalid prediction method {method!r}")
        fn = getattr(self, method, None)
        if not callable(fn):
            raise TypeError(
                f"{type(self).__name__} has no {method}() method to stream"
            )
        return fn(X)

    def predict_streaming(
        self,
        chunks: Any,
        n_rows: int,
        method: str = "predict",
        workers: int = 1,
        out: Any = None,
    ) -> np.ndarray:
        """Predict over a stream of chunks into one preallocated buffer.

        Each chunk's ``predict_chunk`` runs through :func:`map_ordered` and
        writes its **disjoint** ``out[start:stop]`` slice, so the output is
        bit-identical to the in-core call (the prediction methods are
        row-wise) at any worker count, however chunks interleave.  The first
        chunk is served inline to fix the output geometry; in-flight work is
        bounded to ``2 × workers`` chunks so an upstream buffer pool is never
        drained faster than it refills.

        Parameters
        ----------
        chunks:
            Iterable of chunk-like objects with ``start``, ``stop`` and ``X``
            attributes tiling ``[0, n_rows)`` —
            :class:`~repro.api.chunks.Chunk` instances from any chunk stream.
            Chunks exposing ``release()`` (pooled buffers) are released as
            soon as they are served; a chunk queued behind a failed one is
            released without being run.
        n_rows:
            Total rows the chunks cover; fixes the output buffer's length.
        method:
            Prediction method to drive per chunk (``predict``,
            ``predict_proba``, ``decision_function``, …).
        workers:
            Worker threads; ``1`` (default) is the sequential loop on the
            calling thread.
        out:
            Optional preallocated output of leading dimension ``n_rows``;
            allocated from the first chunk's result geometry when omitted.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        n_rows = int(n_rows)

        def release(chunk: Any) -> None:
            hand_back = getattr(chunk, "release", None)
            if callable(hand_back):
                hand_back()

        def serve(chunk: Any) -> int:
            nonlocal out
            try:
                block = np.asarray(self.predict_chunk(chunk.X, method=method))
                rows = chunk.stop - chunk.start
                if block.shape[0] != rows:
                    raise ValueError(
                        f"{method} returned {block.shape[0]} rows for a "
                        f"{rows}-row chunk [{chunk.start}, {chunk.stop})"
                    )
                if out is None:  # only ever the inline first chunk
                    out = np.empty((n_rows, *block.shape[1:]), dtype=block.dtype)
                out[chunk.start : chunk.stop] = block
                return rows
            finally:
                release(chunk)

        iterator = iter(chunks)
        first = next(iterator, None)
        # Inline: the first block's geometry sizes the shared buffer before
        # any worker writes into it.
        filled = serve(first) if first is not None else 0
        filled += sum(map_ordered(serve, iterator, workers, 2 * workers, abandon=release))
        if filled != n_rows:
            raise ValueError(
                f"prediction stream covered {filled} of {n_rows} rows"
            )
        if out is None:  # n_rows == 0 and an empty stream
            return np.empty((0,), dtype=np.float64)
        return out


class ClassifierMixin:
    """Adds accuracy scoring to classifiers."""

    def score(self, X: Any, y: Any) -> float:
        """Mean accuracy of ``predict(X)`` against ``y``."""
        predictions = self.predict(X)  # type: ignore[attr-defined]
        y = np.asarray(y)
        return float(np.mean(predictions == y))


class ClustererMixin:
    """Adds inertia-based scoring to clusterers."""

    def score(self, X: Any) -> float:
        """Negative inertia (so that greater is better, as in scikit-learn)."""
        return -float(self.inertia(X))  # type: ignore[attr-defined]


class TransformerMixin:
    """Adds ``fit_transform`` convenience to transformers."""

    def fit_transform(self, X: Any, y: Any = None) -> np.ndarray:
        """Fit to ``X`` then transform it."""
        if y is None:
            return self.fit(X).transform(X)  # type: ignore[attr-defined]
        return self.fit(X, y).transform(X)  # type: ignore[attr-defined]
