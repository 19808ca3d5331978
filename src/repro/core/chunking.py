"""Chunk planning and iteration over (memory-mapped) matrices.

Estimators use the simple :func:`repro.ml.base.iter_row_chunks` helper; the
benchmark harness and the virtual-memory replay need a richer object — a
:class:`ChunkPlan` that knows how many bytes each chunk touches, so the same
plan can be executed on real data *and* replayed as an access trace through
the simulator at a different scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Tuple

import numpy as np

from repro.vmem.trace import AccessKind, AccessTrace


@dataclass(frozen=True)
class ChunkPlan:
    """A sequence of row chunks over a matrix of known geometry.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix shape.
    itemsize:
        Bytes per element.
    chunk_rows:
        Rows per chunk (the final chunk may be smaller).
    data_offset:
        Byte offset of row 0 within the backing file.
    """

    n_rows: int
    n_cols: int
    itemsize: int
    chunk_rows: int
    data_offset: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols <= 0:
            raise ValueError(f"invalid shape ({self.n_rows}, {self.n_cols})")
        if self.itemsize <= 0:
            raise ValueError(f"itemsize must be positive, got {self.itemsize}")
        if self.chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {self.chunk_rows}")

    @property
    def row_bytes(self) -> int:
        """Bytes per row."""
        return self.n_cols * self.itemsize

    @property
    def total_bytes(self) -> int:
        """Bytes in the whole matrix."""
        return self.n_rows * self.row_bytes

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the plan."""
        return -(-self.n_rows // self.chunk_rows) if self.n_rows else 0

    def bounds(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start_row, stop_row)`` for every chunk, in order."""
        for start in range(0, self.n_rows, self.chunk_rows):
            yield start, min(start + self.chunk_rows, self.n_rows)

    def byte_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(byte_offset, byte_length)`` for every chunk, in order."""
        for start, stop in self.bounds():
            yield self.data_offset + start * self.row_bytes, (stop - start) * self.row_bytes

    def to_trace(
        self,
        passes: int = 1,
        cpu_seconds_per_byte: float = 0.0,
        kind: AccessKind = AccessKind.READ,
        description: str = "",
    ) -> AccessTrace:
        """Convert the plan into an access trace of ``passes`` sequential scans.

        ``cpu_seconds_per_byte`` attributes compute cost to each chunk so the
        simulator can report CPU vs disk utilisation.
        """
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        trace = AccessTrace(description=description or f"{passes} sequential passes")
        for _ in range(passes):
            for offset, length in self.byte_ranges():
                trace.record(offset, length, kind, cpu_cost_s=length * cpu_seconds_per_byte)
        return trace


def plan_chunks(matrix: Any, chunk_rows: int, data_offset: int = 0) -> ChunkPlan:
    """Build a :class:`ChunkPlan` for any 2-D matrix-like object."""
    if not hasattr(matrix, "shape") or len(matrix.shape) != 2:
        raise ValueError("matrix must be 2-D")
    offset = data_offset
    if offset == 0:
        offset = getattr(matrix, "data_offset", 0)
    return ChunkPlan(
        n_rows=int(matrix.shape[0]),
        n_cols=int(matrix.shape[1]),
        itemsize=np.dtype(matrix.dtype).itemsize,
        chunk_rows=chunk_rows,
        data_offset=int(offset),
    )


def iter_chunks(matrix: Any, chunk_rows: int) -> Iterator[np.ndarray]:
    """Yield materialised row chunks of ``matrix`` as float64 arrays."""
    plan = plan_chunks(matrix, chunk_rows)
    for start, stop in plan.bounds():
        yield np.asarray(matrix[start:stop], dtype=np.float64)
