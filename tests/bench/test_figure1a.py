"""Tests for the Figure 1a builder (runtime vs dataset size) and its two-line fit."""

import pytest

from repro.bench.figure1a import Figure1aRow, fit_line, run_figure1a
from repro.bench.m3_model import M3RuntimeModel, M3Workload

GIB = 1024 ** 3


@pytest.fixture(scope="module")
def scaled_result():
    """A scaled-down sweep (1 GiB RAM, 0.25-4 GB datasets) with the same shape."""
    model = M3RuntimeModel(ram_bytes=1 * GIB, page_size=4 * 1024 * 1024)
    workload = M3Workload(name="logistic_regression", passes=12)
    return run_figure1a(
        sizes_gb=[0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0], model=model, workload=workload
    )


class TestFigure1aShape:
    def test_rows_cover_all_sizes(self, scaled_result):
        assert [row.size_gb for row in scaled_result.rows] == [0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0]

    def test_ram_boundary_is_the_models_ram_not_the_papers(self, scaled_result):
        # Every size here is far below the paper's 32 GiB: the rows must be
        # classified against the 1 GiB the model was built with.
        assert [row.size_gb for row in scaled_result.in_ram_rows] == [0.25, 0.5, 0.75, 1.0]
        assert [row.size_gb for row in scaled_result.out_of_core_rows] == [2.0, 3.0, 4.0]
        assert scaled_result.in_ram.points == 4
        assert scaled_result.out_of_core.points == 3

    def test_out_of_core_slope_steeper_than_in_ram(self, scaled_result):
        """The paper: linear in both regimes, 'at a higher scaling constant' out of core."""
        assert scaled_result.out_of_core.slope > scaled_result.in_ram.slope
        assert scaled_result.slowdown_factor > 1.5

    def test_out_of_core_rows_are_io_bound(self, scaled_result):
        for row in scaled_result.out_of_core_rows:
            assert row.io_bound
            assert row.disk_utilization > 0.7
        assert not any(row.io_bound for row in scaled_result.in_ram_rows)

    def test_runtime_roughly_proportional_to_size_out_of_core(self, scaled_result):
        out = scaled_result.out_of_core_rows
        first, last = out[0], out[-1]
        size_ratio = last.size_gb / first.size_gb
        runtime_ratio = last.runtime_s / first.runtime_s
        assert runtime_ratio == pytest.approx(size_ratio, rel=0.35)

    def test_a_side_with_one_size_has_no_slope(self):
        # One point fits any line: the seed drew it through the origin and
        # reported R² 1.0 for it.
        model = M3RuntimeModel(ram_bytes=1 * GIB)
        workload = M3Workload(name="logistic_regression", passes=2)
        with pytest.raises(ValueError, match="at least two sizes"):
            run_figure1a(sizes_gb=[0.5, 2.0, 3.0], model=model, workload=workload)


def _rows(sizes, runtimes):
    return [
        Figure1aRow(
            size_gb=size / 1e9, paper_tick=False, dataset_bytes=size, runtime_s=runtime,
            fits_in_ram=True, disk_utilization=0.5, cpu_utilization=0.5, io_bound=False,
        )
        for size, runtime in zip(sizes, runtimes)
    ]


class TestFitLine:
    SIZES = [10 * GIB, 20 * GIB, 30 * GIB]

    def test_recovers_slope_and_intercept(self):
        fit = fit_line(_rows(self.SIZES, [size * 1e-8 + 5.0 for size in self.SIZES]))
        assert fit.slope == pytest.approx(1e-8, rel=1e-6)
        assert fit.intercept == pytest.approx(5.0, rel=1e-6)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.points == 3

    def test_r2_falls_on_a_series_that_is_not_a_line(self):
        fit = fit_line(_rows(self.SIZES, [1.0, 1.0, 100.0]))
        assert fit.r2 < 0.95

    def test_flat_series_is_a_line_of_slope_zero(self):
        fit = fit_line(_rows(self.SIZES, [7.0, 7.0, 7.0]))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(ValueError):
            fit_line(_rows(self.SIZES[:1], [1.0]))
        with pytest.raises(ValueError):
            fit_line([])
