"""Access-pattern locality of the algorithms (the paper's ongoing-work study).

Records the *actual* access traces of two training runs on a real memory-
mapped dataset — chunked L-BFGS logistic regression (sequential scans) and
shuffled mini-batch SGD (randomised batch order) — and analyses them with the
reuse-distance machinery: sequentiality, working set, and the RAM needed for
the page cache to absorb 90 % of accesses.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.api import Session
from repro.data.writers import write_infimnist_dataset
from repro.ml import LogisticRegression
from repro.vmem.locality import analyze_trace

PAGE_64K = 64 * 1024


def _record_trace(tmp_path, solver: str, shuffle_seed=None):
    path = tmp_path / f"locality_{solver}.m3"
    write_infimnist_dataset(path, num_examples=1500, seed=0)
    with Session() as session:
        dataset = session.open(path, record_trace=True)
        labels = (np.asarray(dataset.labels) >= 5).astype(np.int64)
        model = LogisticRegression(
            max_iterations=3, solver=solver, chunk_size=128, seed=shuffle_seed
        )
        model.fit(dataset.matrix, labels)
        return dataset.trace


@pytest.mark.benchmark(group="locality")
def test_locality_of_lbfgs_is_sequential(benchmark, tmp_path):
    trace = _record_trace(tmp_path, solver="lbfgs")

    report = benchmark.pedantic(
        lambda: analyze_trace(trace, page_size=PAGE_64K, working_set_window=256),
        rounds=1,
        iterations=1,
    )
    emit(
        "Locality — L-BFGS logistic regression (chunked full-batch scans)",
        (
            f"pattern: {report.access_pattern} "
            f"(sequential fraction {report.sequential_fraction:.2f})\n"
            f"distinct pages {report.distinct_pages}, accesses {report.total_page_accesses}\n"
            f"RAM for 90% hit ratio: "
            f"{(report.ram_for_90_percent_hits_bytes or 0) / 1e6:.1f} MB"
        ),
    )
    assert report.access_pattern == "sequential"
    # L-BFGS re-scans the data every evaluation, so reuse is high and a cache
    # holding the dataset absorbs (almost) all accesses.
    assert report.compulsory_miss_ratio < 0.3


@pytest.mark.benchmark(group="locality")
def test_locality_comparison_sgd(benchmark, tmp_path):
    trace = _record_trace(tmp_path, solver="sgd", shuffle_seed=0)

    report = benchmark.pedantic(
        lambda: analyze_trace(trace, page_size=PAGE_64K, working_set_window=256),
        rounds=1,
        iterations=1,
    )
    emit(
        "Locality — SGD logistic regression (mini-batches)",
        (
            f"pattern: {report.access_pattern} "
            f"(sequential fraction {report.sequential_fraction:.2f})\n"
            f"distinct pages {report.distinct_pages}, accesses {report.total_page_accesses}"
        ),
    )
    # SGD still touches the whole file each epoch; its pattern remains
    # mapping-friendly (sequential or mixed, never fully random).
    assert report.access_pattern in ("sequential", "mixed")
