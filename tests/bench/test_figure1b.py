"""Tests for the Figure 1b builder (M3 vs Spark clusters).

The paper-scale bars and the claims read on them are checked once, in
``test_reproduce.py``, on the run that also checks ``REPRODUCTION.md``.
"""

import pytest

from repro.bench.figure1b import run_figure1b
from repro.bench.m3_model import M3RuntimeModel, M3Workload
from repro.bench.workloads import PAPER_FIGURE_1B

GIB = 1024 ** 3


def small_figure1b(dataset_gb):
    return run_figure1b(
        dataset_gb=dataset_gb,
        m3_model=M3RuntimeModel(ram_bytes=GIB),
        lr_workload=M3Workload(name="logistic_regression", passes=2),
        kmeans_workload=M3Workload(name="kmeans", passes=1),
    )


@pytest.fixture(scope="module")
def result():
    return small_figure1b(4)


class TestFigure1bStructure:
    def test_all_six_bars_present(self, result):
        systems = {(row.workload, row.system) for row in result.rows}
        expected = {
            (workload, system)
            for workload in ("logistic_regression", "kmeans")
            for system in ("M3", "4x Spark", "8x Spark")
        }
        assert systems == expected

    def test_paper_references_attached(self, result):
        for row in result.rows:
            assert row.paper_runtime_s == PAPER_FIGURE_1B[row.workload][row.system]
            assert row.relative_error is not None

    def test_speedup_is_the_ratio_to_the_m3_bar(self, result):
        assert result.speedup_over("kmeans", "4x Spark") == pytest.approx(
            result.runtime("kmeans", "4x Spark") / result.runtime("kmeans", "M3")
        )

    def test_unknown_row_lookup_rejected(self, result):
        with pytest.raises(KeyError):
            result.runtime("kmeans", "16x Spark")


class TestFigure1bSmallDataset:
    def test_cluster_advantage_shrinks_when_data_fits_in_cluster_ram(self):
        """At small sizes the 4x/8x gap collapses towards the core-count ratio."""

        def gap(figure1b):
            return figure1b.runtime("logistic_regression", "4x Spark") / figure1b.runtime(
                "logistic_regression", "8x Spark"
            )

        # Only the Spark bars are read: two passes keep the 190 GB M3 replay short.
        assert gap(small_figure1b(20)) < gap(small_figure1b(190))
