#!/usr/bin/env python
"""M3 vs Spark: correctness at laptop scale, runtimes at paper scale (Figure 1b).

Two parts:

1. *Functional comparison.*  The distributed estimators
   (:class:`~repro.distributed.mllib.DistributedLogisticRegression`,
   :class:`~repro.distributed.mllib.DistributedKMeans`) run on the mini RDD
   engine over a real memory-mapped dataset, partitioned across 8 simulated
   executors, and are checked against the single-machine M3 estimators — the
   models agree, and the scheduler shows the work really was spread evenly.

2. *Performance comparison.*  The Figure 1b builder predicts runtimes of the
   190 GB workloads for M3 (virtual-memory simulator) and for 4- and
   8-instance EC2 Spark clusters (cost model), printing them next to the
   paper's reported numbers — the Figure 1b section of ``python -m repro
   reproduce`` (``REPRODUCTION.md``), which also checks the paper's claims on
   them; modelled and uncalibrated, like everything at that scale.

Run with::

    python examples/spark_comparison.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import DistributedEngine, Session
from repro.bench.figure1b import run_figure1b
from repro.bench.reporting import format_table
from repro.data.writers import write_infimnist_dataset
from repro.distributed import JobScheduler, make_emr_cluster
from repro.ml import KMeans, LogisticRegression


def functional_comparison() -> None:
    """Check the distributed implementations against the single-machine ones."""
    with tempfile.TemporaryDirectory() as tmp, Session() as session:
        dataset_path = Path(tmp) / "infimnist_spark.m3"
        write_infimnist_dataset(dataset_path, num_examples=2000, seed=21)
        dataset = session.open(f"mmap://{dataset_path}")
        X = dataset.matrix
        labels = (np.asarray(dataset.labels) >= 5).astype(np.int64)

        cluster = make_emr_cluster(8)
        scheduler = JobScheduler(cluster)
        engine = DistributedEngine(num_partitions=16, scheduler=scheduler)

        # The same estimator instance type trains on both engines: the
        # distributed engine swaps in the MLlib-style counterpart itself.
        local_lr = session.fit(LogisticRegression(max_iterations=10), dataset, y=labels)
        spark_lr = session.fit(
            LogisticRegression(max_iterations=10), dataset, y=labels, engine=engine
        )
        agreement = float(
            np.mean(local_lr.model.predict(X) == spark_lr.model.predict(np.asarray(X)))
        )
        print(
            f"logistic regression: prediction agreement M3 vs distributed = {agreement:.3f}, "
            f"{spark_lr.details['aggregations']} cluster aggregations"
        )

        local_km = session.fit(KMeans(n_clusters=5, max_iterations=10, seed=0), dataset)
        spark_km = session.fit(
            KMeans(n_clusters=5, max_iterations=10, seed=0), dataset, engine=engine
        )
        print(
            f"k-means: inertia M3 {local_km.model.inertia_:.4g} vs distributed "
            f"{spark_km.model.inertia_:.4g} "
            f"(ratio {spark_km.model.inertia_ / local_km.model.inertia_:.3f})"
        )

        rows = scheduler.rows_per_executor()
        print(
            f"work distribution across {len(rows)} executors: "
            f"min {min(rows)}, max {max(rows)} rows "
            f"({scheduler.total_stages()} stages executed)"
        )


def performance_comparison() -> None:
    """Regenerate Figure 1b at the paper's 190 GB scale."""
    result = run_figure1b(dataset_gb=190)
    print()
    print(
        format_table(
            result.rows,
            columns=["workload", "system", "runtime_s", "paper_runtime_s"],
            title="Figure 1b — predicted runtimes vs the paper (190 GB, 10 iterations)",
        )
    )
    for workload in ("logistic_regression", "kmeans"):
        print(
            f"{workload}: M3 is {result.speedup_over(workload, '4x Spark'):.1f}x faster than "
            f"4-instance Spark and {result.speedup_over(workload, '8x Spark'):.1f}x faster than "
            f"8-instance Spark"
        )


def main() -> None:
    functional_comparison()
    performance_comparison()


if __name__ == "__main__":
    main()
