"""``m3 reproduce``: every result of the paper, regenerated once, as one document.

:func:`reproduce` builds one :class:`M3RuntimeModel`, calibrates each workload
once and simulates each (workload, size) once.  Figure 1a's rows and two
slopes, the utilisation rows (Figure 1a's smallest and largest rows) and
Figure 1b's M3 bars are all read from those same estimates; the Spark
cost-model bars and the measured Table 1 run are added; and every statement
the paper makes about them is evaluated as a named :class:`Claim`.
:func:`render` turns the result into the Markdown committed as
``REPRODUCTION.md`` — it contains no wall-clock time and no timestamp, so two
runs print the same bytes.

Sections are labelled *measured* (this machine ran it) or *modelled,
uncalibrated*: the simulator's ``cpu_bytes_per_s`` and the Spark cost model's
per-core throughputs were fitted to the paper's own numbers, and nothing has
yet compared either with an observed run.
"""

from __future__ import annotations

import functools
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

from repro.bench.figure1a import Figure1aResult, run_figure1a
from repro.bench.figure1b import Figure1bResult, run_figure1b
from repro.bench.m3_model import M3RuntimeModel, M3Workload
from repro.bench.reporting import format_table
from repro.bench.table1 import Table1Result, run_table1
from repro.bench.workloads import PAPER_FIGURE_1B, PAPER_UTILIZATION, SWEEP_SIZES_GB

MODELLED = "modelled, uncalibrated"
MEASURED = "measured"


@dataclass(frozen=True)
class Claim:
    """One statement of the paper, checked against the regenerated numbers."""

    section: str
    claim: str
    paper: str
    ours: str
    holds: bool


@dataclass
class Reproduction:
    """Everything ``m3 reproduce`` prints."""

    figure1a: Figure1aResult
    figure1b: Figure1bResult
    table1: Table1Result
    claims: List[Claim]

    @property
    def holds(self) -> bool:
        """Whether every claim holds (the command's exit status)."""
        return all(claim.holds for claim in self.claims)


def reproduce(
    sizes_gb: Sequence[float] = SWEEP_SIZES_GB,
    model: Optional[M3RuntimeModel] = None,
    lr_workload: Optional[M3Workload] = None,
    kmeans_workload: Optional[M3Workload] = None,
) -> Reproduction:
    """Regenerate Figure 1a, the utilisation finding, Figure 1b and Table 1.

    Figure 1b is evaluated at the largest of ``sizes_gb`` (the paper's full
    190 GB dataset by default), so its logistic-regression M3 bar is Figure
    1a's last row.  Its claims quote the paper's seconds and EC2 clusters and
    are only expected to hold at the paper's scale; the others are
    scale-free, which is how tier-1 checks them on a 1 GiB machine.
    """
    model = model or M3RuntimeModel()
    lr_workload = lr_workload or model.logistic_regression_workload()
    kmeans_workload = kmeans_workload or model.kmeans_workload()
    sizes_gb = sorted(sizes_gb)
    # Both builders ask this for their estimates, so a (workload, size) they
    # share is simulated once.
    once = SimpleNamespace(estimate=functools.lru_cache(maxsize=None)(model.estimate))

    figure1a = run_figure1a(sizes_gb=sizes_gb, model=once, workload=lr_workload)
    figure1b = run_figure1b(
        dataset_gb=sizes_gb[-1],
        m3_model=once,
        lr_workload=lr_workload,
        kmeans_workload=kmeans_workload,
    )
    with tempfile.TemporaryDirectory() as workdir:
        table1 = run_table1(workdir)
    return Reproduction(
        figure1a=figure1a,
        figure1b=figure1b,
        table1=table1,
        claims=_claims(figure1a, figure1b, table1),
    )


def _claims(
    figure1a: Figure1aResult, figure1b: Figure1bResult, table1: Table1Result
) -> List[Claim]:
    """The assertions the nine retired bench scripts made, as rows."""
    runtimes = [row.runtime_s for row in figure1a.rows]
    smallest, largest = figure1a.rows[0], figure1a.rows[-1]
    claims = [
        Claim(
            "Figure 1a",
            f"runtime is linear in dataset size {side}",
            "linear",
            f"R² {fit.r2:.4f} over {fit.points} sizes",
            fit.points >= 3 and fit.r2 > 0.95,
        )
        for side, fit in (("in RAM", figure1a.in_ram), ("out of core", figure1a.out_of_core))
    ]
    claims += [
        Claim(
            "Figure 1a",
            "the out-of-core slope is steeper than the in-RAM slope",
            "a higher scaling constant",
            f"{figure1a.out_of_core.slope * 1e9:.2f} vs {figure1a.in_ram.slope * 1e9:.2f} s/GB",
            figure1a.out_of_core.slope > figure1a.in_ram.slope,
        ),
        Claim(
            "Figure 1a",
            "runtime grows with every step in size",
            "monotone",
            f"{runtimes[0]:.0f} s … {runtimes[-1]:.0f} s",
            all(later > earlier for earlier, later in zip(runtimes, runtimes[1:])),
        ),
        Claim(
            "Utilisation",
            f"the {largest.size_gb:g} GB run is I/O bound",
            f"disk {PAPER_UTILIZATION['disk']:.0%}, CPU {PAPER_UTILIZATION['cpu']:.0%}",
            f"disk {largest.disk_utilization:.1%}, CPU {largest.cpu_utilization:.1%}",
            largest.io_bound and largest.disk_utilization > 0.8 and largest.cpu_utilization < 0.25,
        ),
        Claim(
            "Utilisation",
            f"the {smallest.size_gb:g} GB run, cached after one pass, is the more CPU-bound",
            "—",
            f"CPU {smallest.cpu_utilization:.1%} vs {largest.cpu_utilization:.1%}",
            smallest.cpu_utilization > largest.cpu_utilization,
        ),
    ]
    # (workload, label, 4x Spark / M3 must exceed, 8x Spark / M3 must stay inside)
    for workload, label, floor_4x, band_8x in (
        ("logistic_regression", "L-BFGS", 2.5, (1.0, 2.2)),
        ("kmeans", "k-means", 2.0, (1.0, 2.0)),
    ):
        paper = PAPER_FIGURE_1B[workload]
        m3 = figure1b.runtime(workload, "M3")
        ratio_4x = figure1b.speedup_over(workload, "4x Spark")
        ratio_8x = figure1b.speedup_over(workload, "8x Spark")
        claims += [
            Claim(
                "Figure 1b",
                f"{label}: M3's runtime is within 2× of the paper's",
                f"{paper['M3']:,.0f} s",
                f"{m3:,.0f} s",
                paper["M3"] / 2 < m3 < paper["M3"] * 2,
            ),
            Claim(
                "Figure 1b",
                f"{label}: 4× Spark / M3 > {floor_4x}",
                f"{paper['4x Spark'] / paper['M3']:.2f}",
                f"{ratio_4x:.2f}",
                ratio_4x > floor_4x,
            ),
            Claim(
                "Figure 1b",
                f"{label}: 8× Spark / M3 in ({band_8x[0]}, {band_8x[1]})",
                f"{paper['8x Spark'] / paper['M3']:.2f}",
                f"{ratio_8x:.2f}",
                band_8x[0] < ratio_8x < band_8x[1],
            ),
        ]
    return claims + [
        Claim(
            "Table 1",
            "one line of the user's program changes",
            "the allocation line",
            f"{table1.lines_changed} of {table1.total_lines}",
            table1.lines_changed == 1,
        ),
        Claim(
            "Table 1",
            "the memory-mapped model is the in-memory model",
            "identical",
            f"max coefficient delta {table1.max_coef_difference:.2e}, "
            f"predictions identical: {table1.predictions_identical}",
            table1.transparent,
        ),
    ]


def render(result: Reproduction) -> str:
    """The reproduction as one Markdown document (what ``m3 reproduce`` prints)."""
    figure1a, figure1b, table1 = result.figure1a, result.figure1b, result.table1
    held = sum(claim.holds for claim in result.claims)
    parts = [
        "# REPRODUCTION — M3: Scaling Up Machine Learning via Memory Mapping",
        "The output of `python -m repro reproduce`, committed; the command takes no flags "
        "and exits 1 if any claim below fails.  *measured* sections ran on the machine "
        "that printed this.  *modelled, uncalibrated* sections come from the "
        "virtual-memory simulator and the Spark cost model, whose throughput constants "
        "(`cpu_bytes_per_s`, `per_core_bytes_per_s`) were fitted to the paper's own "
        "numbers: they show that the paper's shape follows from its mechanism, not "
        "that this stack has run at that scale.",
        "## Claims",
        format_table(result.claims),
        f"{held} of {len(result.claims)} claims hold.",
        f"## Figure 1a — M3 runtime vs dataset size, 10 iterations of L-BFGS ({MODELLED})",
        format_table(
            figure1a.rows,
            columns=["size_gb", "paper_tick", "runtime_s", "fits_in_ram", "disk_utilization",
                     "cpu_utilization"],
        ),
        f"in-RAM slope: {figure1a.in_ram.slope * 1e9:.2f} s/GB "
        f"(R² {figure1a.in_ram.r2:.4f} over {figure1a.in_ram.points} sizes), "
        f"out-of-core slope: {figure1a.out_of_core.slope * 1e9:.2f} s/GB "
        f"(R² {figure1a.out_of_core.r2:.4f} over {figure1a.out_of_core.points} sizes), "
        f"slowdown factor {figure1a.slowdown_factor:.2f}",
        f"## Utilisation — Figure 1a's smallest and largest rows ({MODELLED})",
        format_table(
            [figure1a.rows[0], figure1a.rows[-1]],
            columns=["size_gb", "disk_utilization", "cpu_utilization", "io_bound", "runtime_s"],
        ),
        f"## Figure 1b — M3 vs Spark, {figure1b.dataset_bytes / 1e9:g} GB ({MODELLED})",
        format_table(
            figure1b.rows, columns=["workload", "system", "runtime_s", "paper_runtime_s"]
        ),
        "\n".join(
            f"- {workload}: 4x Spark / M3 = {figure1b.speedup_over(workload, '4x Spark'):.2f}, "
            f"8x Spark / M3 = {figure1b.speedup_over(workload, '8x Spark'):.2f}"
            for workload in ("logistic_regression", "kmeans")
        ),
        f"## Table 1 — the same program over an array and over a memory map ({MEASURED})",
        format_table(
            [
                {"Table 1": "lines changed", "value": f"{table1.lines_changed} of {table1.total_lines}"},
                {"Table 1": "max coefficient delta", "value": f"{table1.max_coef_difference:.2e}"},
                {"Table 1": "predictions identical", "value": table1.predictions_identical},
                {"Table 1": "in-memory accuracy", "value": f"{table1.in_memory_accuracy:.4f}"},
                {"Table 1": "memory-mapped accuracy", "value": f"{table1.mmap_accuracy:.4f}"},
            ]
        ),
    ]
    return "\n\n".join(parts)
