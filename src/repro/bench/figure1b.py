"""Figure 1b: M3 (one PC) vs 4- and 8-instance Spark clusters.

For both paper workloads — logistic regression with 10 iterations of L-BFGS
and k-means with 10 iterations and 5 clusters, each on the full 190 GB
dataset — this module produces the six runtimes of Figure 1b: M3 via the
virtual-memory simulator, the Spark clusters via the cost model, and compares
the resulting ratios against the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bench.m3_model import M3RuntimeModel, M3Workload
from repro.bench.workloads import (
    FULL_DATASET_GB,
    PAPER_FIGURE_1B,
    PAPER_ITERATIONS,
    dataset_bytes_for_gb,
)
from repro.distributed.cluster import make_emr_cluster
from repro.distributed.cost_model import SparkCostModel, SparkWorkload


@dataclass
class Figure1bRow:
    """One bar of Figure 1b."""

    workload: str
    system: str
    runtime_s: float
    paper_runtime_s: Optional[float]

    @property
    def relative_error(self) -> Optional[float]:
        """Relative deviation from the paper's reported value (if known)."""
        if not self.paper_runtime_s:
            return None
        return abs(self.runtime_s - self.paper_runtime_s) / self.paper_runtime_s


@dataclass
class Figure1bResult:
    """All six bars plus convenience accessors for the paper's claims."""

    rows: List[Figure1bRow]
    dataset_bytes: int

    def runtime(self, workload: str, system: str) -> float:
        """Runtime of one (workload, system) bar."""
        for row in self.rows:
            if row.workload == workload and row.system == system:
                return row.runtime_s
        raise KeyError(f"no row for ({workload!r}, {system!r})")

    def speedup_over(self, workload: str, system: str) -> float:
        """How many times slower ``system`` is than M3 on ``workload``."""
        return self.runtime(workload, system) / self.runtime(workload, "M3")


def run_figure1b(
    dataset_gb: float = FULL_DATASET_GB,
    m3_model: Optional[M3RuntimeModel] = None,
    lr_workload: Optional[M3Workload] = None,
    kmeans_workload: Optional[M3Workload] = None,
) -> Figure1bResult:
    """Regenerate Figure 1b for a dataset of ``dataset_gb`` decimal gigabytes."""
    dataset_bytes = dataset_bytes_for_gb(dataset_gb)
    runtime_model = m3_model or M3RuntimeModel()
    lr = lr_workload or runtime_model.logistic_regression_workload()
    km = kmeans_workload or runtime_model.kmeans_workload()

    rows: List[Figure1bRow] = []

    # M3 (one PC).
    for workload_name, workload in (("logistic_regression", lr), ("kmeans", km)):
        estimate = runtime_model.estimate(workload, dataset_bytes)
        rows.append(
            Figure1bRow(
                workload=workload_name,
                system="M3",
                runtime_s=estimate.wall_time_s,
                paper_runtime_s=PAPER_FIGURE_1B.get(workload_name, {}).get("M3"),
            )
        )

    # Spark clusters.
    spark_workloads = {
        "logistic_regression": SparkWorkload.logistic_regression(dataset_bytes, PAPER_ITERATIONS),
        "kmeans": SparkWorkload.kmeans(dataset_bytes, PAPER_ITERATIONS),
    }
    for instances in (4, 8):
        cluster = make_emr_cluster(instances)
        cost_model = SparkCostModel(cluster=cluster)
        for workload_name, spark_workload in spark_workloads.items():
            estimate = cost_model.estimate(spark_workload)
            system = f"{instances}x Spark"
            rows.append(
                Figure1bRow(
                    workload=workload_name,
                    system=system,
                    runtime_s=estimate.total_time_s,
                    paper_runtime_s=PAPER_FIGURE_1B.get(workload_name, {}).get(system),
                )
            )

    return Figure1bResult(rows=rows, dataset_bytes=dataset_bytes)
