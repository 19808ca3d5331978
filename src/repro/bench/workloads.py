"""Constants describing the paper's experimental setup and reported numbers.

All "paper" values are taken directly from the text and Figure 1 of
Fang & Chau, *M3: Scaling Up Machine Learning via Memory Mapping*, SIGMOD 2016.
"""

from __future__ import annotations

from typing import Dict, List

GB = 1000 ** 3
"""The paper labels dataset sizes in decimal gigabytes ("10G … 190G")."""

GIB = 1024 ** 3

#: Dense float64 Infimnist row: 784 features × 8 bytes (the paper's
#: "each image is 6272 bytes").
BYTES_PER_IMAGE = 784 * 8

#: The M3 test machine had 4 × 8 GB of RAM.
PAPER_RAM_BYTES = 32 * GIB

#: Dataset sizes swept in Figure 1a (x-axis ticks: 10G, 40G, ..., 190G).
FIGURE_1A_SIZES_GB: List[int] = [10, 40, 70, 100, 130, 160, 190]

#: The sizes the reproduction simulates.  Only one of the paper's ticks (10G)
#: is below the 32 GiB boundary and any line fits one point, so two more in-RAM
#: sizes are swept beside them: the in-RAM slope is then a fit over three.
SWEEP_SIZES_GB: List[int] = sorted(FIGURE_1A_SIZES_GB + [20, 30])

#: The full dataset: 32 M images ≈ 190 GB on disk.
FULL_DATASET_GB = 190

#: Iterations used in both timed workloads.
PAPER_ITERATIONS = 10

#: k for the k-means workload.
PAPER_KMEANS_CLUSTERS = 5

#: Number of features per example.
PAPER_NUM_FEATURES = 784


#: Figure 1b's printed runtimes.  Mapping of the six numbers to bars follows
#: the paper's text: for L-BFGS logistic regression M3 is ~30 % faster than
#: 8-instance Spark and 4-instance Spark is 4.2× M3; for k-means 8-instance
#: Spark is 1.37× M3 and 4-instance Spark is ~3× M3.
PAPER_FIGURE_1B: Dict[str, Dict[str, float]] = {
    "logistic_regression": {"M3": 1950.0, "8x Spark": 2864.0, "4x Spark": 8256.0},
    "kmeans": {"M3": 1164.0, "8x Spark": 1604.0, "4x Spark": 3491.0},
}

#: §3.1 finding 1: disk ~100 % utilised, CPU ~13 %.
PAPER_UTILIZATION = {"disk": 1.00, "cpu": 0.13}


def dataset_bytes_for_gb(size_gb: float) -> int:
    """On-disk bytes for a Figure 1a tick labelled ``size_gb`` gigabytes."""
    if size_gb <= 0:
        raise ValueError(f"size_gb must be positive, got {size_gb}")
    return int(size_gb * GB)
