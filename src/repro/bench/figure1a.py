"""Figure 1a: M3 runtime vs dataset size (logistic regression, 10 L-BFGS iterations).

The paper sweeps Infimnist subsets from 10 GB to 190 GB on a 32 GB machine and
shows that runtime grows linearly with dataset size, with a steeper slope once
the dataset no longer fits in RAM.  This module regenerates that series with
the M3 runtime model and fits one least-squares line on each side of the RAM
boundary, so tests (and REPRODUCTION.md) can assert the paper's qualitative
claims:

* runtime is (approximately) linear on each side of the RAM boundary, and
* the out-of-core slope is strictly steeper than the in-RAM slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.m3_model import M3RuntimeModel, M3Workload
from repro.bench.workloads import FIGURE_1A_SIZES_GB, SWEEP_SIZES_GB, dataset_bytes_for_gb


@dataclass
class Figure1aRow:
    """One point of the Figure 1a series."""

    size_gb: float
    paper_tick: bool
    dataset_bytes: int
    runtime_s: float
    fits_in_ram: bool
    disk_utilization: float
    cpu_utilization: float
    io_bound: bool


@dataclass(frozen=True)
class LineFit:
    """``runtime = slope * dataset_bytes + intercept`` over one side's rows.

    ``r2`` says nothing below three points: two points always lie on a line.
    """

    slope: float
    intercept: float
    r2: float
    points: int


def fit_line(rows: Sequence[Figure1aRow]) -> LineFit:
    """Least-squares line through ``rows`` and its R² on those same rows."""
    if len(rows) < 2:
        raise ValueError(
            f"a slope needs at least two sizes on each side of the RAM boundary, got {len(rows)}"
        )
    sizes = np.array([row.dataset_bytes for row in rows], dtype=np.float64)
    runtimes = np.array([row.runtime_s for row in rows], dtype=np.float64)
    design = np.column_stack([sizes, np.ones_like(sizes)])
    (slope, intercept), *_ = np.linalg.lstsq(design, runtimes, rcond=None)
    residual = float(np.sum((runtimes - (slope * sizes + intercept)) ** 2))
    total = float(np.sum((runtimes - runtimes.mean()) ** 2))
    r2 = 1.0 - residual / total if total else 1.0
    return LineFit(slope=float(slope), intercept=float(intercept), r2=r2, points=len(rows))


@dataclass
class Figure1aResult:
    """The regenerated figure plus one fitted line per side of the RAM boundary."""

    rows: List[Figure1aRow]
    in_ram: LineFit = field(init=False)
    out_of_core: LineFit = field(init=False)

    def __post_init__(self) -> None:
        self.in_ram = fit_line(self.in_ram_rows)
        self.out_of_core = fit_line(self.out_of_core_rows)

    @property
    def in_ram_rows(self) -> List[Figure1aRow]:
        """Rows whose dataset fits in the simulated RAM."""
        return [row for row in self.rows if row.fits_in_ram]

    @property
    def out_of_core_rows(self) -> List[Figure1aRow]:
        """Rows whose dataset exceeds the simulated RAM."""
        return [row for row in self.rows if not row.fits_in_ram]

    @property
    def slowdown_factor(self) -> float:
        """Ratio of the out-of-core slope to the in-RAM slope (≥ 1 normally)."""
        if self.in_ram.slope <= 0:
            return float("inf")
        return self.out_of_core.slope / self.in_ram.slope


def run_figure1a(
    sizes_gb: Sequence[float] = SWEEP_SIZES_GB,
    model: Optional[M3RuntimeModel] = None,
    workload: Optional[M3Workload] = None,
) -> Figure1aResult:
    """Regenerate the Figure 1a sweep.

    Parameters
    ----------
    sizes_gb:
        Dataset sizes (decimal GB) to sweep; defaults to the paper's ticks
        plus two in-RAM sizes.  At least two must fall on each side of the
        RAM boundary.
    model:
        Optional pre-configured :class:`M3RuntimeModel` (lets callers use a
        smaller machine, a different disk, etc.); defaults to the paper's.
    workload:
        Optional workload; defaults to the calibrated L-BFGS logistic
        regression workload.
    """
    runtime_model = model or M3RuntimeModel()
    lr_workload = workload or runtime_model.logistic_regression_workload()

    rows: List[Figure1aRow] = []
    for size_gb in sizes_gb:
        estimate = runtime_model.estimate(lr_workload, dataset_bytes_for_gb(size_gb))
        rows.append(
            Figure1aRow(
                size_gb=float(size_gb),
                paper_tick=size_gb in FIGURE_1A_SIZES_GB,
                dataset_bytes=estimate.dataset_bytes,
                runtime_s=estimate.wall_time_s,
                fits_in_ram=estimate.fits_in_ram,
                disk_utilization=estimate.disk_utilization,
                cpu_utilization=estimate.cpu_utilization,
                io_bound=estimate.io_bound,
            )
        )

    return Figure1aResult(rows=rows)
