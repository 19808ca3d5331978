"""Tests for the benchmark constants and the paper-scale M3 runtime model."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.m3_model import (
    M3RunEstimate,
    M3RuntimeModel,
    M3Workload,
    calibrate_kmeans_passes,
    calibrate_logistic_regression_passes,
)
from repro.bench.workloads import (
    BYTES_PER_IMAGE,
    FIGURE_1A_SIZES_GB,
    PAPER_FIGURE_1B,
    PAPER_RAM_BYTES,
    SWEEP_SIZES_GB,
    dataset_bytes_for_gb,
)
from repro.vmem.trace import AccessKind
from repro.vmem.vm_simulator import VirtualMemorySimulator

GIB = 1024 ** 3


class TestWorkloadConstants:
    def test_bytes_per_image_is_6272(self):
        assert BYTES_PER_IMAGE == 6272

    def test_paper_ram_is_32_gib(self):
        assert PAPER_RAM_BYTES == 32 * GIB

    def test_figure_1a_ticks(self):
        assert FIGURE_1A_SIZES_GB[0] == 10
        assert FIGURE_1A_SIZES_GB[-1] == 190

    def test_sweep_has_three_sizes_on_the_in_ram_side(self):
        assert set(FIGURE_1A_SIZES_GB) < set(SWEEP_SIZES_GB)
        in_ram = [size for size in SWEEP_SIZES_GB if dataset_bytes_for_gb(size) <= PAPER_RAM_BYTES]
        assert in_ram == [10, 20, 30]

    def test_figure_1b_reference_values(self):
        assert PAPER_FIGURE_1B["logistic_regression"]["4x Spark"] == 8256.0
        assert PAPER_FIGURE_1B["kmeans"]["M3"] == 1164.0

    def test_dataset_size_helpers(self):
        assert dataset_bytes_for_gb(10) == 10 * 1000 ** 3
        with pytest.raises(ValueError):
            dataset_bytes_for_gb(0)


class TestCalibration:
    def test_lbfgs_makes_at_least_one_pass_per_iteration(self):
        passes = calibrate_logistic_regression_passes(n_samples=500, n_features=16)
        assert passes >= 11  # 1 initial + >=1 per iteration

    def test_kmeans_makes_one_pass_per_iteration(self):
        assert calibrate_kmeans_passes(n_samples=500) == 10.0

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            M3Workload(name="bad", passes=0)
        with pytest.raises(ValueError):
            M3Workload(name="bad", passes=1, cpu_bytes_per_s=0)


class TestM3RuntimeModel:
    @pytest.fixture()
    def model(self):
        # A scaled-down machine (1 GiB RAM) so tests run in milliseconds.
        return M3RuntimeModel(ram_bytes=1 * GIB, page_size=4 * 1024 * 1024)

    def test_runtime_grows_with_dataset_size(self, model):
        workload = M3Workload(name="lr", passes=5)
        small = model.estimate(workload, dataset_bytes_for_gb(0.5))
        large = model.estimate(workload, dataset_bytes_for_gb(4))
        assert large.wall_time_s > small.wall_time_s

    def test_out_of_core_is_io_bound(self, model):
        workload = M3Workload(name="lr", passes=10)
        estimate = model.estimate(workload, dataset_bytes_for_gb(4))
        assert estimate.disk_utilization > 0.8
        assert estimate.cpu_utilization < 0.2

    def test_in_ram_dataset_read_once(self, model):
        workload = M3Workload(name="lr", passes=10)
        dataset_bytes = dataset_bytes_for_gb(0.5)
        estimate = model.estimate(workload, dataset_bytes)
        # Pages are faulted in on the first pass only.
        assert estimate.bytes_read < 2 * dataset_bytes

    def test_out_of_core_dataset_reread_every_pass(self, model):
        workload = M3Workload(name="lr", passes=5)
        dataset_bytes = dataset_bytes_for_gb(4)
        estimate = model.estimate(workload, dataset_bytes)
        assert estimate.bytes_read > 4 * dataset_bytes

    def test_fits_in_ram_is_judged_against_the_models_ram(self, model):
        # 2 GB on a 1 GiB machine is re-read on every pass: out of core,
        # though far below the paper's 32 GiB.
        workload = M3Workload("logistic_regression", passes=3)
        estimate = model.estimate(workload, 2 * 10**9)
        assert estimate.bytes_read > 3 * 2 * 10**9
        assert estimate.ram_bytes == GIB
        assert estimate.fits_in_ram is False
        assert model.estimate(workload, 10**9 // 2).fits_in_ram is True

    def test_io_bound_is_the_papers_regime(self, model):
        # The paper's observation: disk ~100 %, CPU ~13 %.
        workload = M3Workload(name="lr", passes=10)
        out_of_core = model.estimate(workload, dataset_bytes_for_gb(4))
        in_ram = model.estimate(workload, dataset_bytes_for_gb(0.5))
        assert out_of_core.io_bound is True
        assert in_ram.io_bound is False
        assert in_ram.cpu_utilization > out_of_core.cpu_utilization

    @pytest.mark.parametrize(
        "disk, cpu, expected",
        [(1.0, 0.13, True), (0.3, 0.9, False), (0.6, 0.4, False), (0.4, 0.1, False)],
    )
    def test_io_bound_rule(self, disk, cpu, expected):
        estimate = M3RunEstimate(
            workload="lr", dataset_bytes=1, ram_bytes=1, wall_time_s=1.0, io_time_s=disk,
            cpu_time_s=cpu, disk_utilization=disk, cpu_utilization=cpu, bytes_read=0,
        )
        assert estimate.io_bound is expected

    def test_lr_workload_slower_than_kmeans(self):
        """The paper's L-BFGS run (1950 s) is slower than k-means (1164 s)
        because the line search makes extra passes."""
        model = M3RuntimeModel(ram_bytes=GIB)
        lr = model.logistic_regression_workload()
        km = model.kmeans_workload()
        assert lr.passes > km.passes

    def test_invalid_dataset_size_rejected(self, model):
        with pytest.raises(ValueError):
            model.estimate(M3Workload(name="x", passes=1), 0)


class _Replayed(Exception):
    """Carries the trace ``estimate`` hands the simulator, unreplayed."""


def scan_trace(model, workload, dataset_bytes):
    """The ``(trace, file_bytes)`` that ``model.estimate`` would replay."""

    def capture(self, trace, file_bytes):
        raise _Replayed(trace, file_bytes)

    with mock.patch.object(VirtualMemorySimulator, "run_trace", capture):
        with pytest.raises(_Replayed) as replayed:
            model.estimate(workload, dataset_bytes)
    return replayed.value.args


class TestScanTrace:
    """``estimate``'s synthetic trace, record for record."""

    ROW = BYTES_PER_IMAGE

    def test_whole_passes_are_consecutive_chunk_reads(self):
        workload = M3Workload(name="lr", passes=2, cpu_bytes_per_s=1e9)
        trace, file_bytes = scan_trace(M3RuntimeModel(chunk_rows=4), workload, 10 * self.ROW)
        assert file_bytes == 10 * self.ROW
        one_pass = [(0, 4 * self.ROW), (4 * self.ROW, 4 * self.ROW), (8 * self.ROW, 2 * self.ROW)]
        assert [(r.offset, r.length) for r in trace] == one_pass * 2
        assert all(r.kind is AccessKind.READ for r in trace)
        assert [r.cpu_cost_s for r in trace] == [length * (1.0 / 1e9) for _, length in one_pass * 2]
        assert trace.description == "lr x2 passes"

    def test_fractional_pass_is_a_prefix_of_one_more(self):
        workload = M3Workload(name="lr", passes=2.5, cpu_bytes_per_s=3e9)
        trace, _ = scan_trace(M3RuntimeModel(chunk_rows=2), workload, 10 * self.ROW)
        # Five chunks per pass: two whole passes, then int(5 * 0.5) = 2 chunks.
        assert len(trace) == 12
        prefix = list(trace)[10:]
        assert [(r.offset, r.length) for r in prefix] == [(0, 2 * self.ROW), (2 * self.ROW, 2 * self.ROW)]
        assert [r.cpu_cost_s for r in prefix] == [2 * self.ROW / 3e9] * 2

    def test_under_one_pass_still_scans_once(self):
        workload = M3Workload(name="km", passes=0.5)
        trace, _ = scan_trace(M3RuntimeModel(chunk_rows=1), workload, 4 * self.ROW)
        assert len(trace) == 4 + 2

    def test_dataset_smaller_than_a_row_maps_one_row(self):
        trace, file_bytes = scan_trace(M3RuntimeModel(), M3Workload(name="lr", passes=1), 10)
        assert file_bytes == self.ROW
        assert [(r.offset, r.length) for r in trace] == [(0, self.ROW)]

    @given(
        rows=st.integers(1, 3000),
        chunk_rows=st.integers(1, 512),
        passes=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_covers_matrix_exactly_per_pass(self, rows, chunk_rows, passes):
        trace, file_bytes = scan_trace(
            M3RuntimeModel(chunk_rows=chunk_rows),
            M3Workload(name="scan", passes=passes),
            rows * self.ROW,
        )
        num_chunks = -(-rows // chunk_rows)
        assert file_bytes == rows * self.ROW
        assert trace.total_bytes == passes * file_bytes
        assert trace.max_offset == file_bytes
        assert len(trace) == passes * num_chunks
        # Chunks within a pass are perfectly sequential.
        if num_chunks > 1:
            assert trace.sequential_fraction() > 0.0
