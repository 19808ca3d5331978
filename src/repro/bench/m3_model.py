"""Paper-scale M3 runtime estimation via the virtual-memory simulator.

The benchmark harness needs M3 runtimes for datasets of 10–190 GB on a 32 GB
machine — hardware this reproduction does not have.  The estimation pipeline:

1. *Calibrate the access pattern* by running the real algorithm (L-BFGS
   logistic regression or k-means from :mod:`repro.ml`) on a small, genuinely
   memory-mapped dataset and counting how many full sequential passes over the
   data it makes (function evaluations for L-BFGS, iterations for k-means).
2. *Scale the pattern* to the target dataset size as an
   :class:`~repro.vmem.trace.AccessTrace`: the same number of sequential
   chunk-by-chunk passes over a file of the paper's size, with a per-byte
   CPU cost representing the paper's CPU (so CPU utilisation lands near the
   reported ~13 %).
3. *Replay* the trace in :class:`~repro.vmem.VirtualMemorySimulator`
   configured with the paper's 32 GB RAM and PCIe-SSD profile, yielding wall
   time, I/O statistics and cache behaviour.

Datasets that fit in RAM are read from disk once and then served from the
page cache, giving the shallower in-RAM slope of Figure 1a; larger datasets
fault on every pass, giving the steeper out-of-core slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bench.workloads import (
    BYTES_PER_IMAGE,
    PAPER_ITERATIONS,
    PAPER_KMEANS_CLUSTERS,
    PAPER_NUM_FEATURES,
    PAPER_RAM_BYTES,
)
from repro.data.synthetic import make_classification
from repro.ml.cluster.kmeans import KMeans
from repro.ml.linear_model.logistic_regression import LogisticRegression
from repro.vmem.disk import DiskProfile, NVME_SSD
from repro.vmem.readahead import FixedReadAhead
from repro.vmem.trace import AccessTrace
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator


@dataclass(frozen=True)
class M3Workload:
    """An M3 workload expressed as sequential passes over the dataset.

    Attributes
    ----------
    name:
        Workload name ("logistic_regression" or "kmeans").
    passes:
        Number of full sequential scans of the dataset the algorithm makes.
    cpu_bytes_per_s:
        CPU processing throughput of the paper's machine for this workload
        (bytes of training data consumed per CPU-second).  The default is
        calibrated so that CPU utilisation in the out-of-core regime lands
        near the paper's ~13 %.
    """

    name: str
    passes: float
    cpu_bytes_per_s: float = 12e9

    def __post_init__(self) -> None:
        if self.passes <= 0:
            raise ValueError("passes must be positive")
        if self.cpu_bytes_per_s <= 0:
            raise ValueError("cpu_bytes_per_s must be positive")


@dataclass
class M3RunEstimate:
    """Outcome of a paper-scale M3 simulation."""

    workload: str
    dataset_bytes: int
    ram_bytes: int
    wall_time_s: float
    io_time_s: float
    cpu_time_s: float
    disk_utilization: float
    cpu_utilization: float
    bytes_read: int
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def fits_in_ram(self) -> bool:
        """Whether the dataset was smaller than the simulated RAM."""
        return self.dataset_bytes <= self.ram_bytes

    @property
    def io_bound(self) -> bool:
        """I/O bound in the paper's sense: the disk busy at least half the
        run and at least twice as busy as the CPU."""
        return self.disk_utilization >= 0.5 and self.disk_utilization >= 2.0 * self.cpu_utilization


def calibrate_logistic_regression_passes(
    n_samples: int = 2000,
    n_features: int = 64,
    iterations: int = PAPER_ITERATIONS,
    seed: int = 0,
) -> float:
    """Measure how many data passes 10 L-BFGS iterations make in practice.

    Runs the real estimator on a small synthetic problem and returns the
    number of objective evaluations (each evaluation is one full sequential
    pass over the design matrix).
    """
    X, y = make_classification(n_samples=n_samples, n_features=n_features, seed=seed)
    model = LogisticRegression(max_iterations=iterations, solver="lbfgs")
    model.fit(X, y)
    return float(model.result_.function_evaluations)


def calibrate_kmeans_passes(
    n_samples: int = 2000,
    n_features: int = 16,
    iterations: int = PAPER_ITERATIONS,
    n_clusters: int = PAPER_KMEANS_CLUSTERS,
    seed: int = 0,
) -> float:
    """Measure how many data passes k-means makes.

    Each Lloyd iteration is exactly one sequential pass.  Initialisation is
    not counted: mlpack's default k-means initialisation (and Spark MLlib's)
    samples candidate points rather than scanning the full dataset, so the
    paper's 10-iteration runs are 10 full passes.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    model = KMeans(
        n_clusters=n_clusters, max_iterations=iterations, init="random", seed=seed, tolerance=0.0
    )
    model.fit(X)
    return float(model.n_iter_)


class M3RuntimeModel:
    """Estimates paper-scale M3 runtimes by trace replay.

    Parameters
    ----------
    ram_bytes:
        Simulated RAM (default: the paper's 32 GB).
    disk_profile:
        Simulated storage device (default: PCIe SSD like the paper's).
    page_size:
        Simulated page size.  Benchmarks use 4 MiB pages: with bandwidth-
        dominated sequential I/O the page granularity does not change the
        totals, and coarse pages keep the Python simulation fast even for
        190 GB traces.
    chunk_rows:
        Rows per chunk in the generated access trace (matches the default
        streaming chunk size of the estimators).
    """

    def __init__(
        self,
        ram_bytes: int = PAPER_RAM_BYTES,
        disk_profile: DiskProfile = NVME_SSD,
        page_size: int = 4 * 1024 * 1024,
        chunk_rows: int = 4096,
    ) -> None:
        self.ram_bytes = ram_bytes
        self.disk_profile = disk_profile
        self.page_size = page_size
        self.chunk_rows = chunk_rows

    # -- workload definitions ----------------------------------------------

    #: mlpack's L-BFGS (used by the paper) calls ``Evaluate`` and ``Gradient``
    #: as separate functions during the Wolfe line search, so a single
    #: "function evaluation" costs roughly 1.5 sequential passes over the data
    #: rather than the 1 fused pass our optimiser makes.
    MLPACK_EVAL_PASS_FACTOR = 1.5

    def logistic_regression_workload(self, passes: Optional[float] = None) -> M3Workload:
        """The paper's L-BFGS logistic regression workload.

        When ``passes`` is not given it is calibrated by running the real
        optimiser (counting fused value+gradient evaluations) and scaling by
        :data:`MLPACK_EVAL_PASS_FACTOR` to reflect mlpack's separate
        Evaluate/Gradient passes.
        """
        if passes is None:
            passes = calibrate_logistic_regression_passes() * self.MLPACK_EVAL_PASS_FACTOR
        return M3Workload(name="logistic_regression", passes=passes, cpu_bytes_per_s=12e9)

    def kmeans_workload(self, passes: Optional[float] = None) -> M3Workload:
        """The paper's k-means workload."""
        if passes is None:
            passes = calibrate_kmeans_passes()
        return M3Workload(name="kmeans", passes=passes, cpu_bytes_per_s=20e9)

    # -- estimation -----------------------------------------------------------

    def estimate(self, workload: M3Workload, dataset_bytes: int) -> M3RunEstimate:
        """Simulate ``workload`` over a dataset of ``dataset_bytes`` bytes."""
        if dataset_bytes <= 0:
            raise ValueError("dataset_bytes must be positive")
        n_rows = int(max(1, dataset_bytes // BYTES_PER_IMAGE))
        row_bytes = PAPER_NUM_FEATURES * 8  # float64 rows
        # One pass: consecutive ``chunk_rows``-row reads, front to back.
        chunks = [
            (start * row_bytes, (min(start + self.chunk_rows, n_rows) - start) * row_bytes)
            for start in range(0, n_rows, self.chunk_rows)
        ]
        trace = AccessTrace(description=f"{workload.name} x{workload.passes} passes")
        whole_passes = int(workload.passes)
        cpu_seconds_per_byte = 1.0 / workload.cpu_bytes_per_s
        for _ in range(max(1, whole_passes)):
            for offset, length in chunks:
                trace.record(offset, length, cpu_cost_s=length * cpu_seconds_per_byte)
        # Fractional passes (e.g. 12.5) are appended as a prefix of one more pass.
        fraction = workload.passes - whole_passes
        if fraction > 1e-9:
            for offset, length in chunks[: int(len(chunks) * fraction)]:
                trace.record(offset, length, cpu_cost_s=length / workload.cpu_bytes_per_s)

        config = VirtualMemoryConfig(
            ram_bytes=self.ram_bytes,
            page_size=self.page_size,
            readahead=FixedReadAhead(window=8),
            disk_profile=self.disk_profile,
        )
        simulator = VirtualMemorySimulator(config)
        result = simulator.run_trace(trace, file_bytes=n_rows * row_bytes)
        stats = result.io_stats
        return M3RunEstimate(
            workload=workload.name,
            dataset_bytes=dataset_bytes,
            ram_bytes=self.ram_bytes,
            wall_time_s=result.wall_time_s,
            io_time_s=stats.io_time_s,
            cpu_time_s=stats.cpu_time_s,
            disk_utilization=stats.io_utilization,
            cpu_utilization=stats.cpu_utilization,
            bytes_read=stats.bytes_read,
            cache_stats=result.cache_stats_dict,
        )
