#!/usr/bin/env python
"""Out-of-core logistic regression, and what it would cost at paper scale.

The paper's headline experiment trains logistic regression (10 iterations of
L-BFGS) on Infimnist datasets of 10–190 GB on a machine with 32 GB of RAM.
This example reproduces the pipeline at laptop scale and then projects it to
paper scale:

1. write a dataset to disk (``mmap://``: one raw, checksummed shard) and
   train *through the memory map*, recording the exact byte ranges the
   algorithm touches;
2. inspect the recorded access pattern (it is a sequence of sequential scans —
   the pattern the OS read-ahead rewards);
3. replay the same pattern in the virtual-memory simulator configured like the
   paper's machine (32 GB RAM, PCIe SSD) for both an in-RAM dataset (10 GB)
   and the full out-of-core dataset (190 GB), reporting the runtimes and the
   disk/CPU utilisation split the paper observed.

Run with::

    python examples/logistic_regression_outofcore.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Session
from repro.bench.m3_model import M3RuntimeModel
from repro.bench.workloads import dataset_bytes_for_gb
from repro.data.writers import write_infimnist_dataset
from repro.ml import LogisticRegression


def train_with_trace(dataset_path: Path) -> tuple:
    """Train binary LR on the memory-mapped shard, recording the access trace."""
    with Session() as session:
        dataset = session.open(f"mmap://{dataset_path}", record_trace=True)
        labels = (np.asarray(dataset.labels) >= 5).astype(np.int64)  # 0-4 vs 5-9

        model = LogisticRegression(max_iterations=10, solver="lbfgs")
        result = session.fit(model, dataset, y=labels)
        return model, result.trace, dataset.nbytes


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        dataset_path = Path(tmp) / "infimnist_small.m3"
        write_infimnist_dataset(dataset_path, num_examples=3000, seed=11)

        model, trace, nbytes = train_with_trace(dataset_path)
        print(
            f"trained binary LR on {nbytes / 1e6:.1f} MB memory-mapped data: "
            f"{model.result_.iterations} L-BFGS iterations, "
            f"{model.result_.function_evaluations} objective evaluations, "
            f"final loss {model.result_.value:.4f}"
        )
        print(
            f"recorded access trace: {len(trace)} accesses, "
            f"{trace.total_bytes / 1e6:.1f} MB touched, "
            f"sequential fraction {trace.sequential_fraction():.2f}"
        )

        # Project to paper scale with the virtual-memory simulator.
        runtime_model = M3RuntimeModel()
        workload = runtime_model.logistic_regression_workload(
            passes=model.result_.function_evaluations * M3RuntimeModel.MLPACK_EVAL_PASS_FACTOR
        )
        print(f"\nprojected M3 runtimes ({workload.passes:.1f} sequential passes per run):")
        print(f"{'size':>8} {'runtime':>12} {'disk util':>10} {'cpu util':>9} {'regime':>12}")
        for size_gb in (10, 40, 190):
            estimate = runtime_model.estimate(workload, dataset_bytes_for_gb(size_gb))
            regime = "in RAM" if estimate.fits_in_ram else "out of core"
            print(
                f"{size_gb:>6} GB {estimate.wall_time_s:>10.0f} s "
                f"{estimate.disk_utilization * 100:>9.1f}% "
                f"{estimate.cpu_utilization * 100:>8.1f}% {regime:>12}"
            )
        print(
            f"\nthe 190 GB run is {'I/O' if estimate.io_bound else 'CPU'} bound (the paper:"
            " disk 100%, CPU ~13%).  These are modelled, uncalibrated numbers; the full"
            " sweep and the claims checked on it are `python -m repro reproduce`"
            " (REPRODUCTION.md)."
        )


if __name__ == "__main__":
    main()
