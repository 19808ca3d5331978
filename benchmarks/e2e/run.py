#!/usr/bin/env python3
"""End-to-end benchmark of the M3 reproduction: five workloads, one command.

The benchmark contract (what ``BENCHMARK.json`` declares and a driver runs)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all five (each in its own subprocess, so
set-up, leaked threads and BLAS spin do not bleed between workloads) and
``--out FILE`` keeps the whole set as JSON.  ``--compare A B`` reads two such
sets against ISSUE 12's bounds.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
#: The environment every measured process runs under (recorded in the output).
#: One BLAS/OpenMP thread, so BLAS spin does not fight the stack's own threads
#: on a 2-core box.  glibc malloc keeps freed memory instead of unmapping it:
#: on the sandbox VM a first-touch page fault costs ~10 us (40x bare metal), so
#: with the default dynamic mmap threshold the same fit alternates between two
#: speeds depending on which cycle's temporaries were unmapped last.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}


def _require_source_tree() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing to run."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {REPO_ROOT / 'src' / 'repro'} not found: the benchmark needs "
              f"the source tree it measures", file=sys.stderr)
        raise SystemExit(2)


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds are written."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pin_environment() -> None:
    """Re-execute under ``PINNED_ENV`` (malloc reads its settings at start-up)."""
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(REPO_ROOT / "src"))


# -- one workload, in this process --------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work: Path, probes: bool = True, break_oracle: bool = False) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns its full detail record."""
    import harness
    from harness import Tally, Tracer, fresh_dir, median, percentile, summarise, work_dir
    from workloads import NATIVE_BOUNDS, WORKLOADS

    sizes = harness.SMOKE if smoke else harness.FULL
    tally = Tally()
    detail: Dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds,
                              "sizes": "smoke" if smoke else "full"}
    with work_dir(work, name) as scratch:
        workload = WORKLOADS[name](seed, sizes, scratch)
        setup_s: List[float] = []
        per_layer: Dict[str, float] = {}
        setups = sizes.setups if workload.cheap_setup else 1
        if sizes.setups > 1:
            workload.warm_up(tally)
        for repeat in range(setups):
            began = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - began)
            if repeat + 1 < setups:
                workload.teardown(tally)
        try:
            workload.prepare_oracle()
            if break_oracle:
                workload.break_oracle()
            # A traced run spends its time in the twin and the probes; it
            # measures only the one untraced cycle trace.overhead_frac needs.
            repeats, deadline = ((1, 0.0) if trace
                                 else (workload.repeats, time.perf_counter() + seconds))
            cycles = [workload.cycle(tally)]
            while len(cycles) < repeats or time.perf_counter() < deadline:
                cycles.append(workload.cycle(tally))
            if trace:
                import probes as layer

                tracer = Tracer(name)
                workload.traced(tracer, tally)
                per_layer = layer.trace_metrics(tracer, median([c["cycle_s"] for c in cycles]))
                # ISSUE 12: "self times must sum to the traced wall within 5 %".  Nested
                # spans on one thread always sum to the root span, so what can fail is the
                # part of it no layer span covers.
                tally.attempt()
                tally.check(per_layer["trace.unattributed_frac"] <= 0.05,
                            f"{name} traced: {per_layer['trace.unattributed_frac']:.1%} of the "
                            f"traced wall is under no layer span")
                if probes:
                    per_layer.update(layer.layer_probes(sizes, fresh_dir(scratch / "probes"), seed))
                tracer.dump(work / f"spans-{name}.jsonl")
                detail["span_self_s"] = tracer.self_times()
        finally:
            workload.teardown(tally)

    native = {key: summarise([cycle[key] for cycle in cycles]) for key in cycles[0]}
    for key, values in workload.pooled.items():
        native[key] = summarise(values)
        if len(values) > 100:   # thousands of round trips: the quartiles are kept, not the list
            del native[key]["values"]
    native["setup_s"] = summarise(setup_s)
    contract = {"setup_s": native["setup_s"]["median"]}
    contract.update({slot: native[own]["median"] for slot, own in workload.slots.items()})
    tails = {
        f"{key}_p{q}": percentile(values, q)
        for key, values in workload.samples.items() for q in (90, 99)
    }
    tails.update({f"{key}_samples": float(len(values)) for key, values in workload.samples.items()})
    detail.update({
        "correct": tally.failed == 0 and tally.oracles > 0,
        "attempted": tally.attempted, "failed": tally.failed, "oracle_checks": tally.oracles,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "environment": PINNED_ENV, "cycles": len(cycles),
        "slots": dict(workload.slots), "contract": contract,
        # ISSUE 12's end-to-end metrics of this workload, by their own names.
        "end_to_end": {key: native[key]["median"] for key in NATIVE_BOUNDS if key in native},
        "native": native, "tails": tails, "per_layer": per_layer,
    })
    return detail


# -- printing -------------------------------------------------------------------


def _units() -> Dict[str, str]:
    spec = declared()
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


def _native_unit(name: str) -> str:
    for suffix, unit in (("_rows_per_s", "rows/s"), ("_req_per_s", "req/s"), ("_per_s", "1/s"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ms"


def print_detail(detail: Dict[str, Any]) -> None:
    units = _units()
    name = detail["workload"]
    print(f"== {name}  seed={detail['seed']} sizes={detail['sizes']} cycles={detail['cycles']}")
    print("   env: " + " ".join(f"{key}={value}" for key, value in detail["environment"].items()))
    print(f"   oracle: {'PASS' if detail['correct'] else 'FAIL'}  attempted={detail['attempted']} "
          f"failed={detail['failed']} failed_frac={detail['failed_frac']:.6f} "
          f"checks={detail['oracle_checks']}")
    for problem in detail["problems"]:
        print(f"   MISMATCH: {problem}")
    slot_of = {own: slot for slot, own in detail["slots"].items()}
    for key, summary in detail["native"].items():
        role = f" -> {slot_of[key]}" if key in slot_of else ""
        print(f"   {key:<28}{summary['median']:>14.4f} {_native_unit(key):<7} "
              f"[q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}, n={summary['n']}]{role}")
    for key in sorted(detail["tails"]):
        print(f"   {key:<28}{detail['tails'][key]:>14.4f}")
    if detail["per_layer"]:
        print(f"-- per-layer metrics ({name})")
        for key, value in detail["per_layer"].items():
            print(f"   {key:<50}{value:>14.4f} {units.get(key, '')}")
        if any(key.startswith("floor.") for key in detail["per_layer"]):
            print_floor_table(detail["per_layer"])


def print_floor_table(per_layer: Dict[str, float]) -> None:
    """Each layer beside its hardware floor: 'fast' is a stated share of the floor."""
    from probes import FLOOR_OF

    units = _units()
    print("-- floor table: layer | measured | floor | % of floor")
    for layer, floor in FLOOR_OF.items():
        measured, limit = per_layer[layer], per_layer[floor]
        # A rate is read as layer/floor, a latency as floor/layer: 100 % = at the floor.
        # (Every pair in FLOOR_OF shares one unit.)
        share = measured / limit if layer.endswith("_per_s") else limit / measured
        print(f"   {layer:<44}{measured:>12.4f} {units[layer]:<8}"
              f"{floor:<36}{limit:>12.4f} {units[floor]:<8}{share * 100:>8.1f} %")


def contract_line(detail: Dict[str, Any], trace: bool) -> str:
    """The last line of stdout the driver parses."""
    units = _units()
    metrics: Dict[str, Any] = {}
    if detail["correct"]:
        values = detail["per_layer"] if trace else detail["contract"]
        metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    return json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"], "metrics": metrics,
    })


# -- all workloads ----------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "environment": PINNED_ENV}


def git_commit() -> str:
    """``HEAD``, with ``+worktree`` when uncommitted changes were measured."""
    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *arguments], cwd=REPO_ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+worktree" if git("status", "--porcelain") else "")


def _run_one(args: argparse.Namespace, name: str, seed: int, trace: bool,
             probes: bool = True) -> Optional[Dict[str, Any]]:
    """One run of one workload: in process for ``--smoke``, else its own subprocess."""
    work = Path(args.work)
    if args.smoke:
        detail = run_workload(name, seed, args.seconds, trace, True, work, probes)
        print_detail(detail)
        return detail
    detail_path = work / f"detail-{os.getpid()}.json"
    work.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds), "--work", str(work),
               "--trace", str(int(trace)), "--detail", str(detail_path)]
    if not probes:
        command.append("--no-probes")
    code = subprocess.run(command, cwd=REPO_ROOT).returncode
    if not detail_path.is_file():
        print(f"error: workload {name} exited {code} without a result", file=sys.stderr)
        return None
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    detail_path.unlink()
    return detail


def run_all(args: argparse.Namespace) -> int:
    """Every workload, ``--runs`` untraced runs each (seeds ``seed``, ``seed+1``, ...).

    A set's end-to-end value is the median over its runs: on this host one
    run can sit inside a slow spell of the VM, several do not.  With
    ``--trace`` each workload also gets one traced run; the layer probes are
    properties of (code, machine), so only the first of them takes them.
    """
    from harness import median, quartiles
    from workloads import WORKLOADS

    workloads: Dict[str, Dict[str, Any]] = {}
    per_layer: Dict[str, float] = {}
    for name in WORKLOADS:
        runs = [_run_one(args, name, args.seed + index, trace=False) for index in range(args.runs)]
        traced = _run_one(args, name, args.seed, True, probes=not per_layer) if args.trace else None
        finished = [run for run in runs + [traced] if run is not None]
        untraced = [run for run in runs if run is not None]
        record: Dict[str, Any] = {
            "correct": (len(finished) == args.runs + bool(args.trace)
                        and all(run["correct"] for run in finished)),
            "attempted": sum(run["attempted"] for run in finished),
            "failed": sum(run["failed"] for run in finished),
            "failed_frac": max((run["failed_frac"] for run in finished), default=1.0),
            "end_to_end": {}, "spread": {}, "runs": runs,
        }
        for metric in (untraced[0]["end_to_end"] if untraced else ()):
            values = [run["end_to_end"][metric] for run in untraced]
            q1, _, q3 = quartiles(values)
            record["end_to_end"][metric] = median(values)
            record["spread"][metric] = (q3 - q1) / median(values)
        if traced:
            layers = traced["per_layer"]
            record["trace"] = {k: v for k, v in layers.items() if k.startswith("trace.")}
            record["span_self_s"] = traced.get("span_self_s", {})
            per_layer = per_layer or {k: v for k, v in layers.items() if not k.startswith("trace.")}
        workloads[name] = record
    print(f"== end-to-end medians over {args.runs} run(s)   [spread = (q3 - q1) / median of the runs]")
    for name, record in workloads.items():
        for key, value in record["end_to_end"].items():
            print(f"   {name:<12} {key:<24}{value:>14.4f} {_native_unit(key):<7}"
                  f" spread {record['spread'][key] * 100:>5.1f} %")
        print(f"   {name:<12} {'failed_frac':<24}{record['failed_frac']:>14.6f}")
    if args.out:
        result = {"commit": git_commit(), "host": host_fingerprint(), "seed": args.seed,
                  "runs": args.runs, "seconds": args.seconds,
                  "sizes": "smoke" if args.smoke else "full", "workloads": workloads,
                  "per_layer": per_layer}
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all(record["correct"] for record in workloads.values()) else 1


# -- comparing two sets -------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Do two full sets agree on every end-to-end metric x workload within its bound?

    A pairing whose own run-to-run spread (in either set) is wider than the
    bound is *unresolved*: the host cannot tell agreement from regression
    there, so it is reported as neither.
    """
    from workloads import NATIVE_BOUNDS

    set_a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    set_b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    outside = unresolved = 0
    print(f"{'workload':<12} {'metric':<24}{'A':>14}{'B':>14}{'B vs A':>9}{'bound':>7}{'spread':>8}"
          f"  verdict")
    for name in set_a:
        a, b = set_a[name], set_b[name]
        for metric, va in a["end_to_end"].items():
            vb, bound = b["end_to_end"][metric], NATIVE_BOUNDS[metric]
            change = (vb - va) / va
            spread = max(a["spread"][metric], b["spread"][metric])
            if spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok" if abs(change) <= bound else "OUTSIDE"
            outside += verdict == "OUTSIDE"
            unresolved += verdict == "unresolved"
            print(f"{name:<12} {metric:<24}{va:>14.4f}{vb:>14.4f}{change * 100:>+8.1f}%"
                  f"{bound * 100:>6.0f}%{spread * 100:>7.1f}%  {verdict}")
        clean = all(s["failed_frac"] == 0 and s["correct"] for s in (a, b))
        outside += not clean
        print(f"{name:<12} {'failed_frac':<24}{a['failed_frac']:>14.6f}{b['failed_frac']:>14.6f}"
              f"{'':>9}{'0':>7}{'':>8}  {'ok' if clean else 'OUTSIDE'}")
    print(f"{outside} pairing(s) outside their bound, {unresolved} unresolved "
          f"(run-to-run spread wider than the bound)")
    return 1 if outside else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed cycles per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run the hand-driven traced twin and the layer probes")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one process")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: untraced runs per workload (median is kept)")
    parser.add_argument("--out", help="write the whole set of results to this JSON file")
    parser.add_argument("--work", default=None,
                        help="directory for datasets and span dumps (default: benchmarks/e2e/.work)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--break-oracle", action="store_true",
                        help="perturb one expected prediction: the run must exit non-zero")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out sets against ISSUE 12's bounds")
    args = parser.parse_args(argv)

    _require_source_tree()
    _pin_environment()
    if args.compare:
        return compare(*args.compare)
    from harness import DEFAULT_WORK
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    args.work = args.work or str(DEFAULT_WORK)
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    Path(args.work).mkdir(parents=True, exist_ok=True)
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          Path(args.work), not args.no_probes, args.break_oracle)
    print_detail(detail)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail), encoding="utf-8")
    print(contract_line(detail, bool(args.trace)))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
