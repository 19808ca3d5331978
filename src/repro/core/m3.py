"""Table 1's helpers.

User code reads like Table 1 of the paper: one helper call replaces the
in-memory constructor, and everything downstream is unchanged:

.. code-block:: python

    import repro.core as m3
    from repro.ml import LogisticRegression

    X, y = m3.open_dataset("infimnist_10gb.m3")     # memory mapped, any size
    model = LogisticRegression(max_iterations=10).fit(X, y)   # unchanged code

The three helpers are plain functions over a pool-less
:class:`~repro.api.Session` (so ``shard://`` specs work here too) that return
bare ``(matrix, labels)`` shapes and keep no state.  Code that wants engines,
per-handle traces (``session.open(spec, record_trace=True).trace``), dataset
metadata (``session.info(spec)``) or a managed lifecycle uses the session
directly:

.. code-block:: python

    from repro.api import Session

    with Session() as session:
        dataset = session.open("mmap://infimnist_10gb.m3")
        result = session.fit(LogisticRegression(max_iterations=10), dataset)
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.core.advice import AccessAdvice
from repro.core.allocator import mmap_alloc
from repro.core.config import M3Config
from repro.core.mmap_matrix import MmapMatrix
from repro.vmem.trace import AccessTrace


def _session() -> Any:
    """A pool-less session for one helper call.

    Callers hold bare ``(matrix, labels)`` tuples and rely on garbage
    collection to release mappings, so handles must not be shared or tracked
    beyond their ``Dataset``.  Imported here, not at module level:
    :mod:`repro.api` itself imports :mod:`repro.core`.
    """
    from repro.api.session import Session

    return Session(handle_pool_size=0)


def create_dataset(
    path: Union[str, Path], data: np.ndarray, labels: Optional[np.ndarray] = None
) -> Path:
    """Write an in-memory matrix (and optional labels) to an M3 dataset file."""
    _session().create(Path(path), data, labels)
    return Path(path)


def open_dataset(
    path: Union[str, Path],
    mode: Optional[str] = None,
    advice: Optional[AccessAdvice] = None,
    record_trace: Optional[bool] = None,
) -> Tuple[MmapMatrix, Optional[np.ndarray]]:
    """Open a dataset as ``(matrix, labels)``.

    ``path`` may be a filesystem path or any URI-style spec the unified
    API understands (``mmap://…``, ``shard://…``).  Prefer
    :meth:`repro.api.Session.open`, which returns a managed
    :class:`~repro.api.Dataset` handle instead of a bare tuple.
    """
    session = _session()
    dataset = session.release(
        session.open(
            path if isinstance(path, (str, Path)) else Path(path),
            mode=mode,
            advice=advice,
            record_trace=record_trace,
        )
    )
    labels = dataset.labels
    if labels is not None:
        # The bare shape promises a plain int64 ndarray; materialise lazy
        # label views (the sharded backend's) here so callers can keep using
        # ndarray operators on the result.
        labels = np.asarray(labels)
    return dataset.matrix, labels


def load_matrix(
    path: Union[str, Path],
    shape: Optional[Tuple[int, int]] = None,
    dtype: Union[str, np.dtype] = np.float64,
    mode: Optional[str] = None,
    advice: Optional[AccessAdvice] = None,
    record_trace: Optional[bool] = None,
) -> MmapMatrix:
    """Memory-map a matrix file.

    If ``shape`` is omitted the file must be in M3 binary format (the
    header supplies the geometry); with an explicit ``shape`` any raw
    binary file of the right size can be mapped — the direct analogue of
    the paper's ``mmapAlloc(file, rows * cols)``.
    """
    path = Path(path)
    if shape is None:
        matrix, _ = open_dataset(path, mode=mode, advice=advice, record_trace=record_trace)
        return matrix
    config = M3Config()
    trace = AccessTrace(description=f"load_matrix({path.name})") if record_trace else None
    backing = mmap_alloc(path, shape, dtype=dtype, mode=mode or config.mode)
    return MmapMatrix(
        backing, source_path=path, advice=advice or config.default_advice, trace=trace
    )
