"""The harness that regenerates the paper's results.

:func:`repro.bench.reproduce.reproduce` (``m3 reproduce``) is the one entry
point (import it from its module: the package attribute ``reproduce`` is that
module); it calls one builder per artifact:

* :mod:`repro.bench.figure1a` — M3 runtime vs dataset size (10–190 GB, 32 GB
  RAM), the two fitted slopes and, as its smallest and largest rows, the
  disk-100 % / CPU-13 % observation.
* :mod:`repro.bench.figure1b` — M3 vs 4-instance and 8-instance Spark for
  logistic regression (L-BFGS) and k-means.
* :mod:`repro.bench.table1` — the "minimal code change" / transparency claim.

The heavy lifting is done by :class:`repro.bench.m3_model.M3RuntimeModel`
(paper-scale M3 runtimes via the virtual-memory simulator) and
:class:`repro.distributed.cost_model.SparkCostModel` (paper-scale cluster
runtimes), both driven by the constants in :mod:`repro.bench.workloads`.
"""

from repro.bench.workloads import (
    BYTES_PER_IMAGE,
    FIGURE_1A_SIZES_GB,
    FULL_DATASET_GB,
    GB,
    PAPER_RAM_BYTES,
    PAPER_FIGURE_1B,
    SWEEP_SIZES_GB,
)
from repro.bench.m3_model import M3RunEstimate, M3RuntimeModel, M3Workload
from repro.bench.figure1a import Figure1aRow, LineFit, run_figure1a
from repro.bench.figure1b import Figure1bRow, run_figure1b
from repro.bench.table1 import Table1Result, run_table1
from repro.bench.reporting import format_table

__all__ = [
    "GB",
    "BYTES_PER_IMAGE",
    "PAPER_RAM_BYTES",
    "FIGURE_1A_SIZES_GB",
    "SWEEP_SIZES_GB",
    "FULL_DATASET_GB",
    "PAPER_FIGURE_1B",
    "M3Workload",
    "M3RuntimeModel",
    "M3RunEstimate",
    "Figure1aRow",
    "LineFit",
    "run_figure1a",
    "Figure1bRow",
    "run_figure1b",
    "Table1Result",
    "run_table1",
    "format_table",
]
