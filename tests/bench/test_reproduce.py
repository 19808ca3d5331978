"""Tests for ``reproduce()``: one run, shared estimates, claims that can fail."""

import dataclasses
from pathlib import Path

import pytest

import repro.bench.reproduce as reproduce_module
from repro.bench.m3_model import M3RunEstimate, M3RuntimeModel, M3Workload
from repro.bench.reproduce import render, reproduce
from repro.bench.table1 import Table1Result
from repro.bench.workloads import SWEEP_SIZES_GB, dataset_bytes_for_gb
from repro.cli import main

GIB = 1024 ** 3
LR = M3Workload(name="logistic_regression", passes=16.5)
KMEANS = M3Workload(name="kmeans", passes=10, cpu_bytes_per_s=20e9)
REPRODUCTION_MD = Path(__file__).resolve().parents[2] / "REPRODUCTION.md"


@pytest.fixture(scope="module")
def paper():
    """The one paper-scale run of tier-1 (what ``m3 reproduce`` runs)."""
    return reproduce()


class TestPaperScale:
    def test_every_claim_holds(self, paper):
        assert [claim.claim for claim in paper.claims if not claim.holds] == []
        assert paper.holds

    def test_committed_document_is_what_the_command_prints(self, paper):
        # A diff here means the numbers moved: rerun `python -m repro
        # reproduce > REPRODUCTION.md` and review what changed.
        assert REPRODUCTION_MD.read_text(encoding="utf-8") == render(paper) + "\n"

    def test_each_side_of_the_boundary_is_fitted_over_three_sizes_or_more(self, paper):
        assert paper.figure1a.in_ram.points == 3
        assert paper.figure1a.out_of_core.points == 6

    def test_the_run_that_fits_in_ram_beats_a_proportional_scale_down(self, paper):
        first, last = paper.figure1a.rows[0], paper.figure1a.rows[-1]
        assert first.runtime_s < last.runtime_s * (first.size_gb / last.size_gb)

    def test_figure1b_orders_m3_then_8x_then_4x(self, paper):
        for workload in ("logistic_regression", "kmeans"):
            m3, spark8, spark4 = (
                paper.figure1b.runtime(workload, system)
                for system in ("M3", "8x Spark", "4x Spark")
            )
            assert m3 < spark8 < spark4

    def test_figure1b_bars_within_2x_of_the_papers(self, paper):
        for row in paper.figure1b.rows:
            assert row.relative_error < 1.0, (row.workload, row.system, row.runtime_s)

    def test_lbfgs_slower_than_kmeans_on_m3(self, paper):
        # Paper: 1950 s vs 1164 s — the line search adds passes.
        assert paper.figure1b.runtime("logistic_regression", "M3") > paper.figure1b.runtime(
            "kmeans", "M3"
        )


class TestScaledDown:
    def test_scale_free_claims_hold_on_a_1gib_machine(self):
        result = reproduce(
            sizes_gb=[0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0],
            model=M3RuntimeModel(ram_bytes=1 * GIB),
            lr_workload=M3Workload(name="logistic_regression", passes=12),
            kmeans_workload=KMEANS,
        )
        # Figure 1b's claims quote the paper's seconds and its EC2 clusters.
        scale_free = [claim for claim in result.claims if claim.section != "Figure 1b"]
        assert {claim.section for claim in scale_free} == {"Figure 1a", "Utilisation", "Table 1"}
        assert [claim.claim for claim in scale_free if not claim.holds] == []
        assert result.figure1a.in_ram.points == 4
        assert result.figure1a.out_of_core.points == 3
        assert result.figure1b.dataset_bytes == dataset_bytes_for_gb(4.0)


class FormulaModel(M3RuntimeModel):
    """The paper's machine with the committed document's two regimes as
    formulas: paper-scale sizes, instant answers, and a hook to bend them."""

    SECONDS_PER_GB = {
        ("logistic_regression", True): 1.93,
        ("logistic_regression", False): 10.57,
        ("kmeans", True): 1.06,
        ("kmeans", False): 6.07,
    }

    def __init__(self, bend=lambda estimate: estimate):
        super().__init__()
        self.bend = bend
        self.calls = []

    def estimate(self, workload, dataset_bytes):
        self.calls.append((workload.name, dataset_bytes))
        in_ram = dataset_bytes <= self.ram_bytes
        wall = dataset_bytes / 1e9 * self.SECONDS_PER_GB[workload.name, in_ram]
        cpu = 0.71 if in_ram else 0.13
        return self.bend(
            M3RunEstimate(
                workload=workload.name, dataset_bytes=dataset_bytes, ram_bytes=self.ram_bytes,
                wall_time_s=wall, io_time_s=wall * (1 - cpu), cpu_time_s=wall * cpu,
                disk_utilization=1 - cpu, cpu_utilization=cpu, bytes_read=dataset_bytes,
            )
        )


def run(bend=lambda estimate: estimate):
    return reproduce(model=FormulaModel(bend), lr_workload=LR, kmeans_workload=KMEANS)


def with_runtime(runtime_of_gb, only):
    """Bend the runtime of the estimates ``only`` selects to ``runtime_of_gb(GB)``."""

    def bend(estimate):
        if not only(estimate):
            return estimate
        return dataclasses.replace(
            estimate, wall_time_s=runtime_of_gb(estimate.dataset_bytes / 1e9)
        )

    return bend


def cpu_bound_out_of_core(estimate):
    if estimate.fits_in_ram:
        return estimate
    return dataclasses.replace(estimate, disk_utilization=0.1, cpu_utilization=0.9)


# What a bent model must turn into "does not hold", claim by claim.
DOCTORED = {
    "in-RAM series is not a line": (
        with_runtime({10: 10.0, 20: 11.0, 30: 60.0}.get, lambda e: e.fits_in_ram),
        {"runtime is linear in dataset size in RAM"},
    ),
    "out-of-core series is not a line": (
        with_runtime(lambda gb: 60 + 1949 * (gb / 190) ** 4, lambda e: not e.fits_in_ram),
        {"runtime is linear in dataset size out of core"},
    ),
    "flat runtimes": (
        with_runtime(lambda gb: 100.0, lambda e: True),
        {"runtime grows with every step in size"},
    ),
    "no knee: the out-of-core slope is the shallower": (
        with_runtime(lambda gb: 400 + 1.0 * gb, lambda e: not e.fits_in_ram),
        {"the out-of-core slope is steeper than the in-RAM slope"},
    ),
    "CPU-bound at 190 GB": (
        cpu_bound_out_of_core,
        {
            "the 190 GB run is I/O bound",
            "the 10 GB run, cached after one pass, is the more CPU-bound",
        },
    ),
    "Spark faster than M3": (
        lambda estimate: dataclasses.replace(estimate, wall_time_s=10 * estimate.wall_time_s),
        {
            "L-BFGS: M3's runtime is within 2× of the paper's",
            "L-BFGS: 4× Spark / M3 > 2.5",
            "L-BFGS: 8× Spark / M3 in (1.0, 2.2)",
            "k-means: M3's runtime is within 2× of the paper's",
            "k-means: 4× Spark / M3 > 2.0",
            "k-means: 8× Spark / M3 in (1.0, 2.0)",
        },
    ),
}
TABLE1_CLAIMS = {
    "one line of the user's program changes",
    "the memory-mapped model is the in-memory model",
}


def not_held(result):
    return {claim.claim for claim in result.claims if not claim.holds}


class TestEveryClaimCanFail:
    def test_the_undoctored_formulas_hold(self):
        result = run()
        assert not_held(result) == set()
        assert result.holds

    @pytest.mark.parametrize("case", DOCTORED)
    def test_doctored_estimates_fail_their_claims(self, case):
        bend, expected = DOCTORED[case]
        result = run(bend)
        assert expected <= not_held(result)
        assert not result.holds
        for line in render(result).splitlines():
            if any(claim in line for claim in expected):
                assert line.rstrip(" |").endswith("False")

    def test_a_two_point_side_is_not_called_linear(self):
        # Two points always lie on a line: R² 1.0 over two sizes checks nothing.
        result = reproduce(
            sizes_gb=[10, 20, 40, 70, 100], model=FormulaModel(), lr_workload=LR,
            kmeans_workload=KMEANS,
        )
        assert result.figure1a.in_ram.r2 == pytest.approx(1.0)
        assert "runtime is linear in dataset size in RAM" in not_held(result)

    def test_doctored_table1_fails_its_claims(self, monkeypatch):
        broken = Table1Result(
            lines_changed=2, total_lines=3, max_coef_difference=0.5,
            predictions_identical=False, in_memory_accuracy=0.9, mmap_accuracy=0.8,
        )
        monkeypatch.setattr(reproduce_module, "run_table1", lambda workdir: broken)
        assert not_held(run()) == TABLE1_CLAIMS

    def test_no_claim_is_left_that_nothing_can_fail(self):
        doctored = set().union(*(expected for _, expected in DOCTORED.values()))
        assert doctored | TABLE1_CLAIMS == {claim.claim for claim in run().claims}


class TestSharedEstimates:
    def test_each_workload_and_size_is_estimated_once(self):
        model = FormulaModel()
        reproduce(model=model, lr_workload=LR, kmeans_workload=KMEANS)
        full = dataset_bytes_for_gb(SWEEP_SIZES_GB[-1])
        assert sorted(model.calls) == sorted(
            [("logistic_regression", dataset_bytes_for_gb(size)) for size in SWEEP_SIZES_GB]
            + [("kmeans", full)]
        )
        # Figure 1a's last row, the 190 GB utilisation row and Figure 1b's
        # L-BFGS M3 bar are one simulation.
        assert model.calls.count(("logistic_regression", full)) == 1


class TestCommand:
    def test_exit_status_is_the_gate(self, monkeypatch, capsys):
        bend, _ = DOCTORED["Spark faster than M3"]
        monkeypatch.setattr(reproduce_module, "reproduce", lambda: run(bend))
        assert main(["reproduce"]) == 1
        assert "8 of 14 claims hold." in capsys.readouterr().out

    def test_prints_the_document_and_exits_zero_when_every_claim_holds(
        self, monkeypatch, capsys, paper
    ):
        monkeypatch.setattr(reproduce_module, "reproduce", lambda: paper)
        assert main(["reproduce"]) == 0
        assert capsys.readouterr().out == REPRODUCTION_MD.read_text(encoding="utf-8")
