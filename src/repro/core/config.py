"""Configuration for the M3 runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.advice import AccessAdvice


@dataclass
class M3Config:
    """Settings controlling how M3 opens and scans memory-mapped datasets.

    Attributes
    ----------
    chunk_rows:
        Default number of rows per chunk when estimators stream over a
        dataset.  Larger chunks amortise per-chunk Python overhead; smaller
        chunks bound peak memory.  The ablation benchmark sweeps this.
    default_advice:
        Access advice applied to newly opened matrices (the analogue of
        ``madvise``); sequential by default because every algorithm in the
        paper scans row-major data front to back.
    mode:
        Default ``numpy.memmap`` mode for opened datasets: ``"r"`` for
        read-only training data.
    record_traces:
        When true, every :class:`~repro.core.mmap_matrix.MmapMatrix` opened
        through a :class:`~repro.api.Session` with this config records its
        access pattern for later replay in the virtual-memory simulator.
    workspace:
        Directory used for datasets created without an explicit path.
    """

    chunk_rows: int = 4096
    default_advice: AccessAdvice = AccessAdvice.SEQUENTIAL
    mode: str = "r"
    record_traces: bool = False
    workspace: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {self.chunk_rows}")
        if self.mode not in ("r", "r+", "c"):
            raise ValueError(f"mode must be one of 'r', 'r+', 'c', got {self.mode!r}")
        if self.workspace is not None:
            self.workspace = Path(self.workspace)
