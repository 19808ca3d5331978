"""Tier-1 smoke test of the end-to-end benchmark (tiny sizes, a few seconds).

Checks the harness, not performance: every workload runs, its oracles run and
pass, the emitted metric names are exactly those ``BENCHMARK.json`` declares,
every value is finite and non-negative, and a second seed passes too.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run_benchmark(work: Path, *arguments: str) -> subprocess.CompletedProcess:
    """``run.py --smoke`` with its datasets and span dumps under ``work``, not in the tree."""
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seconds", "0",
         "--work", str(work), *arguments],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )


def contract_result(work: Path, workload: str, seed: int, trace: int) -> dict:
    done = run_benchmark(work, "--workload", workload, "--seed", str(seed),
                         "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(result: dict, declared: list) -> None:
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
        # trace.overhead_frac compares a sequential twin with a threaded run
        # and wire_overhead is a difference of medians: both may be negative.
        if name not in ("trace.overhead_frac", "net.server.wire_overhead_ms_p50"):
            assert metric["value"] >= 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_oracles(workload: str, tmp_path: Path) -> None:
    assert_metrics(contract_result(tmp_path, workload, seed=1, trace=0), DECLARED["end_to_end"])


def test_per_layer_names(tmp_path: Path) -> None:
    assert_metrics(contract_result(tmp_path, "scan_zlib", seed=1, trace=1), DECLARED["per_layer"])
    assert (tmp_path / "spans-scan_zlib.jsonl").is_file()


def test_all_workloads_second_seed(tmp_path: Path) -> None:
    done = run_benchmark(tmp_path, "--seed", "2")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.count("oracle: PASS") == len(WORKLOADS)


def test_a_broken_oracle_fails_the_run(tmp_path: Path) -> None:
    done = run_benchmark(tmp_path, "--workload", "scan_raw", "--break-oracle")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1 and result["metrics"] == {}
