"""The :class:`Dataset` handle — one open dataset, one object.

A ``Dataset`` bundles the ``(matrix, labels)`` pair an estimator trains on
(``dataset.arrays()``) with what a bare tuple cannot carry:

* the access trace is **per handle** (``dataset.trace``), never shared
  mutable state, so concurrent opens cannot clobber each other's traces;
* the handle has a lifecycle — ``close()`` and context-manager support — so
  backends holding maps and file descriptors (mmap, shard) release them
  deterministically;
* shape, dtype, labels and backend metadata travel together, which is what a
  scheduler needs when it ships work to other processes or nodes.

The matrix itself is always an :class:`~repro.core.mmap_matrix.MmapMatrix`
wrapping the backend's raw storage — an ``ndarray`` in memory, a
:class:`~repro.api.sharded.ShardedMatrix` on disk (one zero-copy map for
``mmap://``) — so estimators see the exact same row-slicing protocol
regardless of the backend.  Every handle is read-only.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api.storage import StorageBackend, StorageHandle, parse_spec
from repro.core.mmap_matrix import MmapMatrix
from repro.vmem.trace import AccessTrace


class Dataset:
    """An open dataset: matrix, labels, metadata and per-handle trace.

    Instances are normally obtained from :meth:`repro.api.Session.open`; the
    constructor is public so backends and tests can build handles directly.

    Parameters
    ----------
    handle:
        The raw pieces returned by a :class:`~repro.api.storage.StorageBackend`.
    spec:
        The spec string the dataset was opened from (informational).
    backend:
        The backend that produced ``handle``.
    record_trace:
        When true, a fresh :class:`~repro.vmem.trace.AccessTrace` is attached
        and every access through the handle is recorded into it.
    on_close:
        Optional hook called once, with this dataset, after the handle's
        ``closer`` — the session uses it to stop tracking the dataset.
    """

    def __init__(
        self,
        handle: StorageHandle,
        spec: str = "",
        backend: Optional[StorageBackend] = None,
        record_trace: bool = False,
        on_close: Optional[Any] = None,
    ) -> None:
        self.spec = str(spec)
        self.backend = backend
        self._handle = handle
        self._on_close = on_close
        self._closed = False
        trace = AccessTrace(description=f"dataset({self.spec})") if record_trace else None
        self._matrix = MmapMatrix(
            handle.matrix, source_path=handle.metadata.get("path"), trace=trace
        )

    # -- identity ----------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Scheme of the backend serving the dataset (``memory``/``mmap``/…)."""
        if self.backend is not None:
            return self.backend.scheme
        return str(self._handle.metadata.get("backend", "unknown"))

    @property
    def matrix(self) -> MmapMatrix:
        """The design matrix, ready to hand to an unmodified estimator."""
        self._check_open()
        return self._matrix

    @property
    def labels(self) -> Optional[np.ndarray]:
        """The label vector, or ``None`` for unlabelled datasets."""
        self._check_open()
        return self._handle.labels

    @property
    def has_labels(self) -> bool:
        """Whether the dataset carries a label vector."""
        return self._handle.labels is not None

    def arrays(self) -> Tuple[MmapMatrix, Optional[np.ndarray]]:
        """The ``(matrix, labels)`` pair — Table 1's one changed line."""
        return self.matrix, self.labels

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix shape ``(rows, cols)``."""
        return self._matrix.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._matrix.dtype

    @property
    def ndim(self) -> int:
        """Always 2."""
        return 2

    @property
    def nbytes(self) -> int:
        """Logical size of the matrix in bytes."""
        return self._matrix.nbytes

    def __len__(self) -> int:
        return self.shape[0]

    def info(self) -> Dict[str, Any]:
        """Backend metadata (rows, cols, dtype, backend, shard count, …)."""
        return dict(self._handle.metadata)

    # -- data access -------------------------------------------------------

    def __getitem__(self, key: Any) -> np.ndarray:
        return self.matrix[key]

    def __array__(self, dtype=None) -> np.ndarray:
        return self.matrix.__array__(dtype)

    # -- appending ----------------------------------------------------------

    @property
    def generation(self) -> Optional[int]:
        """The manifest generation this handle is a snapshot of.

        ``None`` for the memory backend, which has no generations.  This
        handle keeps serving exactly this generation's rows no matter how
        many appends commit after it was opened; re-open (or
        :meth:`Session.refresh`) to see newer rows.
        """
        value = self._handle.metadata.get("generation")
        return None if value is None else int(value)

    def append(self, X: np.ndarray, y: Optional[np.ndarray] = None) -> int:
        """Append rows (and labels) to the *dataset*, not to this handle.

        Commits one new manifest generation through the backend's append
        path and returns its generation number.  This snapshot handle is
        deliberately unaffected — readers mid-scan never see rows move
        underneath them; open a fresh handle (``Session.refresh``) to
        observe the appended rows.  Only generation-versioned backends
        (``shard://``, ``mmap://``) support appending.
        """
        self._check_open()
        append_fn = getattr(self.backend, "append", None)
        if append_fn is None:
            raise TypeError(
                f"the {self.backend_name!r} backend does not support append; "
                f"appendable datasets live on disk (shard://, mmap://)"
            )
        location = self._handle.metadata.get("path")
        if not location:
            location = parse_spec(self.spec).location
        # Append events are recorded into the handle's active trace (as
        # WRITE records at logical matrix offsets), so the simulator can
        # replay mixed read/append workloads from one trace.
        return int(append_fn(location, X, y, trace=self.trace))

    # -- tracing -----------------------------------------------------------

    @property
    def trace(self) -> Optional[AccessTrace]:
        """The handle's access trace (``None`` unless recording)."""
        return self._matrix.trace

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"dataset {self.spec or '<anonymous>'} is closed")

    def close(self) -> None:
        """Release backend resources.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._handle.closer is not None:
            self._handle.closer()
        if self._on_close is not None:
            self._on_close(self)

    def __enter__(self) -> "Dataset":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else "open"
        return (
            f"Dataset(spec={self.spec!r}, backend={self.backend_name!r}, "
            f"shape={self._matrix.shape}, dtype={self._matrix.dtype}, "
            f"labels={self.has_labels}, {status})"
        )
