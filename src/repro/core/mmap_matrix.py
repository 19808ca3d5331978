"""``MmapMatrix`` — a memory-mapped matrix that estimators treat as an array.

This is the object an M3 user hands to an unmodified estimator.  It wraps a
``numpy.memmap`` (or any 2-D array) and

* implements the row-slicing protocol (``shape``, ``dtype``, ``__getitem__``,
  ``__setitem__``) that every estimator in :mod:`repro.ml` relies on,
* optionally records each access into an :class:`~repro.vmem.trace.AccessTrace`
  so that the exact access pattern can be replayed in the virtual-memory
  simulator at paper scale,
* applies :class:`~repro.core.advice.AccessAdvice` to the underlying mapping
  when the platform supports ``madvise``.

Because slicing returns plain ndarray views/copies provided by NumPy, an
``MmapMatrix`` is interchangeable with an in-memory array — which is the whole
point of M3.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.core.advice import AccessAdvice, apply_advice
from repro.vmem.trace import AccessKind, AccessTrace


class MmapMatrix:
    """A 2-D matrix view over (typically) memory-mapped storage.

    Parameters
    ----------
    backing:
        The underlying 2-D array — usually a ``numpy.memmap`` created by
        :func:`repro.core.allocator.mmap_alloc` or
        :func:`repro.data.formats.open_binary_matrix`, but any ndarray works
        (useful in tests and for the transparency property).
    source_path:
        Path of the backing file, if any (informational).
    advice:
        Access advice to apply to the mapping.
    trace:
        Optional trace to record accesses into.
    data_offset:
        Byte offset of the matrix within the backing file; recorded accesses
        are shifted by this amount so trace offsets are file offsets.
    """

    def __init__(
        self,
        backing: Any,
        source_path: Optional[Union[str, Path]] = None,
        advice: AccessAdvice = AccessAdvice.SEQUENTIAL,
        trace: Optional[AccessTrace] = None,
        data_offset: int = 0,
    ) -> None:
        if not hasattr(backing, "shape") or len(backing.shape) != 2:
            raise ValueError("backing must be a 2-D array-like")
        self._backing = backing
        self.source_path = Path(source_path) if source_path is not None else None
        self.advice = advice
        self.trace = trace
        self.data_offset = int(data_offset)
        self._row_bytes = int(backing.shape[1]) * np.dtype(backing.dtype).itemsize
        self._apply_advice()

    # -- array protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix shape ``(rows, cols)``."""
        return (int(self._backing.shape[0]), int(self._backing.shape[1]))

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return np.dtype(self._backing.dtype)

    @property
    def ndim(self) -> int:
        """Always 2."""
        return 2

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        """Total size of the matrix in bytes."""
        return self.shape[0] * self._row_bytes

    @property
    def backing(self) -> Any:
        """The wrapped array (memmap or ndarray)."""
        return self._backing

    @property
    def is_memory_mapped(self) -> bool:
        """Whether the backing array is an actual ``numpy.memmap``."""
        return isinstance(self._backing, np.memmap)

    def __array__(self, dtype=None) -> np.ndarray:
        """Materialise the whole matrix (only sensible for small matrices)."""
        self._record_rows(0, self.shape[0], AccessKind.READ)
        result = np.asarray(self._backing)
        return result.astype(dtype) if dtype is not None else result

    # -- slicing ------------------------------------------------------------

    def _record_rows(self, start: int, stop: int, kind: AccessKind) -> None:
        if self.trace is None or stop <= start:
            return
        self.trace.record(
            self.data_offset + start * self._row_bytes,
            (stop - start) * self._row_bytes,
            kind,
        )

    def record_read(self, start: int, stop: int) -> None:
        """Record a read of rows ``[start, stop)`` performed out of band.

        Readers that gather rows straight into preallocated buffers (the
        parallel chunk pipeline's buffer pool) bypass ``__getitem__``; this
        keeps the handle's access trace complete anyway.
        """
        self._record_rows(start, stop, AccessKind.READ)

    def _bounds_from_key(self, key: Any) -> Optional[Tuple[int, int]]:
        """Row bounds touched by an indexing key, or ``None`` if unknown."""
        rows = self.shape[0]
        row_key = key[0] if isinstance(key, tuple) else key
        if isinstance(row_key, slice):
            start, stop, step = row_key.indices(rows)
            if step > 0:
                return (start, stop)
            return (min(start, stop) + 1, max(start, stop) + 1) if rows else (0, 0)
        if isinstance(row_key, (int, np.integer)):
            index = int(row_key)
            if index < 0:
                index += rows
            return (index, index + 1)
        if isinstance(row_key, (list, np.ndarray)):
            arr = np.asarray(row_key)
            if arr.size == 0:
                return (0, 0)
            if arr.dtype == bool:
                touched = np.nonzero(arr)[0]
                if touched.size == 0:
                    return (0, 0)
                return (int(touched.min()), int(touched.max()) + 1)
            arr = np.where(arr < 0, arr + rows, arr)
            return (int(arr.min()), int(arr.max()) + 1)
        return None

    def __getitem__(self, key: Any) -> np.ndarray:
        bounds = self._bounds_from_key(key)
        if bounds is not None:
            self._record_rows(bounds[0], bounds[1], AccessKind.READ)
        return self._backing[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        bounds = self._bounds_from_key(key)
        if bounds is not None:
            self._record_rows(bounds[0], bounds[1], AccessKind.WRITE)
        self._backing[key] = value

    # -- management ---------------------------------------------------------

    def _apply_advice(self) -> bool:
        if not self.is_memory_mapped:
            return False
        try:
            view = memoryview(self._backing._mmap)  # noqa: SLF001
        except (AttributeError, TypeError):
            return False
        return apply_advice(view, self.advice)

    def set_advice(self, advice: AccessAdvice) -> bool:
        """Change the access advice; returns whether it could be applied."""
        self.advice = advice
        return self._apply_advice()

    def flush(self) -> None:
        """Flush dirty pages to disk (no-op for plain ndarrays)."""
        flush = getattr(self._backing, "flush", None)
        if callable(flush) and getattr(self._backing, "mode", "r") != "r":
            flush()

    def __repr__(self) -> str:
        location = str(self.source_path) if self.source_path else "anonymous"
        kind = "memmap" if self.is_memory_mapped else "in-memory"
        return (
            f"MmapMatrix(shape={self.shape}, dtype={self.dtype}, "
            f"backing={kind}, source={location!r})"
        )
