#!/usr/bin/env python
"""M3 vs Spark at paper scale: Figure 1b's predicted runtimes.

The Figure 1b builder predicts runtimes of the 190 GB workloads for M3
(virtual-memory simulator) and for 4- and 8-instance EC2 Spark clusters
(:class:`~repro.distributed.cost_model.SparkCostModel`), printing them next
to the paper's reported numbers.  It is the Figure 1b section of ``python -m
repro reproduce`` (``REPRODUCTION.md``), which also checks the paper's claims
on them; modelled and uncalibrated, like everything at that scale.

Run with::

    python examples/spark_comparison.py
"""

from __future__ import annotations

from repro.bench.figure1b import run_figure1b
from repro.bench.reporting import format_table


def performance_comparison() -> None:
    """Regenerate Figure 1b at the paper's 190 GB scale."""
    result = run_figure1b(dataset_gb=190)
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
    performance_comparison()


if __name__ == "__main__":
    main()
