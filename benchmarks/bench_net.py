"""Network serving under open-loop load: adaptive delay vs fixed dispatch.

The acceptance bar of the ``repro.net`` front end: under a high-rate
open-loop arrival process (requests keep coming whether or not responses
have drained — the regime closed-loop clients can never produce), the
:class:`~repro.net.AdaptiveDelayController` must sustain **>= 1.3x** the
throughput of per-request dispatch (``max_batch=1``), while at low load
its learned window collapses to zero so the p50 latency stays within 10%
(plus a scheduling-jitter epsilon) of a ``max_delay_ms=0`` server.

Three traffic shapes drive every configuration through a real socket —
``NetClient`` pipelining request frames into a ``NetServer`` — because the
controller's whole premise is learning from *wire* arrival times:

* ``poisson_high`` — exponential inter-arrival gaps far above the
  single-row service rate; batching is the only way to keep up.
* ``bursty`` — back-to-back bursts separated by idle gaps, the shape
  that punishes a fixed window from both sides.
* ``poisson_low`` — arrivals slower than the adaptive cutoff, where the
  controller must get out of the way (window exactly 0).

The two gated loads run ``ROUNDS`` rounds of all three configurations, the
order of the configurations alternating, and each gate is read on the
median round of its own ratio: one round of the 1.3x gate measured 1.25 to
2.26 on a shared 2-vCPU guest.

A fourth, closed-loop section (``wire``) guards the request framing
itself: 4 outstanding 64-row x 784 requests, sent as raw-row frames and
as JSON lines over one connection to one server — the frame must carry
rows **>= 3x** as fast as their decimal spelling, bit-identically.

Writes ``BENCH_net.json`` (uploaded by CI as an artifact): per-load,
per-configuration throughput, p50/p99 client-observed latency, mean
batch rows, the adaptive controller's learned state, the ``wire``
section, and the bit-identity check against in-core ``model.predict``.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import assert_metrics_clean, emit
from repro.ml import GaussianNaiveBayes, SoftmaxRegression
from repro.net import AdaptiveDelayController, NetClient, NetServer
from repro.serve import ModelServer

N_ROWS = 3000
N_FEATURES = 64
N_CLASSES = 100         # per-class likelihood loop = high fixed per-call cost
MAX_BATCH = 256
CEILING_MS = 5.0

HIGH_REQUESTS = 1200
HIGH_MEAN_GAP_S = 0.0001      # ~10000 offered req/s, far above 1-row service
BURSTS = 40
BURST_SIZE = 30
BURST_PAUSE_S = 0.010
LOW_REQUESTS = 150
LOW_MEAN_GAP_S = 0.010        # ~100 req/s: below the adaptive cutoff

WIRE_FEATURES = 784
WIRE_ROWS_PER_REQUEST = 64
WIRE_REQUESTS = 60
WIRE_OUTSTANDING = 4

#: Configuration name -> ModelServer coalescing knobs.
CONFIGS = ("per_request", "fixed_zero", "adaptive")
ROUNDS = 3              # per gated load; a gate reads its median round


@pytest.fixture(scope="module")
def workload():
    """A fitted multi-class scorer plus its in-core predictions."""
    rng = np.random.default_rng(4242)
    X = rng.normal(size=(N_ROWS, N_FEATURES))
    y = (np.arange(N_ROWS) % N_CLASSES).astype(np.int64)
    model = GaussianNaiveBayes().fit(X, y)
    return X, model, model.predict(X)


def _gaps_poisson(n: int, mean_gap_s: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).exponential(mean_gap_s, size=n)


def _gaps_bursty() -> np.ndarray:
    """BURSTS bursts of BURST_SIZE back-to-back requests, idle in between."""
    gaps = []
    for _ in range(BURSTS):
        gaps.append(BURST_PAUSE_S)
        gaps.extend([0.0] * (BURST_SIZE - 1))
    return np.asarray(gaps)


def _build_server(config: str):
    """One (ModelServer, controller) pair per configuration under test."""
    controller = None
    if config == "per_request":
        server = ModelServer(max_batch=1, max_delay_ms=0.0, max_pending=8192)
    elif config == "fixed_zero":
        server = ModelServer(max_batch=MAX_BATCH, max_delay_ms=0.0, max_pending=8192)
    elif config == "adaptive":
        controller = AdaptiveDelayController(max_batch=MAX_BATCH,
                                             ceiling_ms=CEILING_MS)
        server = ModelServer(max_batch=MAX_BATCH, max_pending=8192,
                             delay_controller=controller)
    else:
        raise ValueError(config)
    return server, controller


def _stats_after(net: NetServer, responses: int):
    """``net.stats()`` once ``responses`` are counted: the loop thread counts
    after flushing each write, a beat after the client's future resolves."""
    for _ in range(100):
        net_stats = net.stats()
        if net_stats.responses >= responses:
            break
        time.sleep(0.01)
    return net_stats


def _run_open_loop(config: str, X, model, expected, gaps) -> dict:
    """Drive one arrival schedule at one configuration over a real socket."""
    server, controller = _build_server(config)
    server.publish("default", model)
    mismatches = []
    latencies = np.zeros(len(gaps))
    done_at = np.zeros(len(gaps))
    with NetServer(server, max_inflight=4096) as net:
        with NetClient(net.host, net.port, timeout_s=120.0) as client:
            began = time.perf_counter()
            futures = []
            for i, gap in enumerate(gaps):
                if gap > 0.0:
                    time.sleep(gap)
                sent = time.perf_counter()

                def _record(future, i=i, sent=sent):
                    now = time.perf_counter()
                    latencies[i] = now - sent
                    done_at[i] = now

                future = client.submit(X[i % N_ROWS], request_id=i)
                future.add_done_callback(_record)
                futures.append(future)
            for i, future in enumerate(futures):
                result = future.result(timeout=120.0)
                if result.predictions[0] != expected[i % N_ROWS]:
                    mismatches.append((i, result.model_key))
        wall = float(done_at.max() - began)
        serve_stats = server.stats()
        net_stats = _stats_after(net, len(gaps))
    server.close()
    assert not mismatches, f"served predictions diverged: {mismatches[:5]}"
    assert net_stats.errors == 0, net_stats
    assert net_stats.responses == len(gaps), net_stats
    metrics = {
        "requests": len(gaps),
        "wall_s": wall,
        "requests_per_s": len(gaps) / wall if wall > 0 else 0.0,
        "latency_p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_batch_rows": serve_stats.mean_batch_rows,
    }
    if controller is not None:
        snap = controller.snapshot()
        metrics["learned_delay_ms"] = snap["delay_ms"]
        gap_ewma = snap["gap_ewma_ms"]
        metrics["gap_ewma_ms"] = 0.0 if math.isnan(gap_ewma) else gap_ewma
    return metrics


def _closed_loop_rows_per_s(client, X, expected, spell) -> float:
    """WIRE_REQUESTS requests of ``spell(rows)``, WIRE_OUTSTANDING in flight,
    each checked against in-core ``predict``; rows served per second."""
    starts = [(i * WIRE_ROWS_PER_REQUEST) % (len(X) - WIRE_ROWS_PER_REQUEST + 1)
              for i in range(WIRE_REQUESTS)]
    pending: deque = deque()
    mismatches = []

    def collect() -> None:
        start, future = pending.popleft()
        got = future.result(timeout=120.0).predictions
        if not np.array_equal(got, expected[start:start + WIRE_ROWS_PER_REQUEST]):
            mismatches.append(start)

    began = time.perf_counter()
    for start in starts:
        if len(pending) >= WIRE_OUTSTANDING:
            collect()
        rows = X[start:start + WIRE_ROWS_PER_REQUEST]
        pending.append((start, client.submit(spell(rows))))
    while pending:
        collect()
    wall = time.perf_counter() - began
    assert not mismatches, f"served predictions diverged at rows {mismatches[:5]}"
    return WIRE_REQUESTS * WIRE_ROWS_PER_REQUEST / wall


def _run_wire() -> dict:
    """Raw-row frames vs JSON lines, closed loop, one connection, one server."""
    rng = np.random.default_rng(784)
    # Digit-like rows (values k/255): what the decimal spelling costs
    # depends on how many digits a value needs.
    X = rng.integers(0, 256, size=(2048, WIRE_FEATURES)) / 255.0
    model = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=256, seed=0)
    model.fit(X, (np.arange(len(X)) % 10).astype(np.int64))
    expected = model.predict(X)
    server = ModelServer(max_batch=MAX_BATCH, max_delay_ms=0.0)
    server.publish("default", model)
    with NetServer(server) as net:
        with NetClient(net.host, net.port, timeout_s=120.0) as client:
            # An ndarray goes out raw; the same rows as a list are the JSON
            # line an ndarray caller paid for before the frame existed
            # (tolist() is part of that price, so it is inside the clock).
            raw_row = _closed_loop_rows_per_s(client, X, expected, np.asarray)
            jsonl = _closed_loop_rows_per_s(client, X, expected, np.ndarray.tolist)
        net_stats = _stats_after(net, 2 * WIRE_REQUESTS)
    server.close()
    assert net_stats.errors == 0, net_stats
    assert net_stats.requests == net_stats.responses == 2 * WIRE_REQUESTS, net_stats
    return {
        "workload": (
            f"closed loop, {WIRE_OUTSTANDING} outstanding, {WIRE_REQUESTS} requests "
            f"of {WIRE_ROWS_PER_REQUEST} x {WIRE_FEATURES} float64 per framing"
        ),
        "raw_row_rows_per_s": raw_row,
        "jsonl_rows_per_s": jsonl,
        "raw_row_over_jsonl": raw_row / jsonl,
        "bit_identical_to_in_core_predict": True,  # asserted per request
    }


@pytest.mark.benchmark(group="net")
def test_adaptive_delay_vs_fixed_dispatch(benchmark, workload):
    """Open-loop Poisson + bursty arrivals over the socket, three configs."""
    X, model, expected = workload
    loads = {
        "poisson_high": _gaps_poisson(HIGH_REQUESTS, HIGH_MEAN_GAP_S, seed=7),
        "bursty": _gaps_bursty(),
        "poisson_low": _gaps_poisson(LOW_REQUESTS, LOW_MEAN_GAP_S, seed=11),
    }

    def sweep():
        return {
            load: [
                {
                    config: _run_open_loop(config, X, model, expected, gaps)
                    for config in (reversed(CONFIGS) if index % 2 else CONFIGS)
                }
                for index in range(1 if load == "bursty" else ROUNDS)  # bursty gates nothing
            ]
            for load, gaps in loads.items()
        }, _run_wire()

    rounds, wire = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def speedup_of(high_round) -> float:
        per_request = high_round["per_request"]["requests_per_s"]
        return high_round["adaptive"]["requests_per_s"] / per_request if per_request > 0 else 0.0

    def median_round(load, key):
        return sorted(rounds[load], key=key)[len(rounds[load]) // 2]

    high = median_round("poisson_high", speedup_of)
    low = median_round(
        "poisson_low",
        lambda r: r["adaptive"]["latency_p50_ms"] / r["fixed_zero"]["latency_p50_ms"],
    )
    results = {"poisson_high": high, "bursty": rounds["bursty"][0], "poisson_low": low}
    speedup = speedup_of(high)
    # Scheduling-jitter epsilon: at ~1ms service times, half a millisecond
    # of sleep()/wakeup noise would otherwise dominate a 10% band.
    p50_bound_ms = low["fixed_zero"]["latency_p50_ms"] * 1.10 + 0.5
    payload = {
        "workload": (
            f"GaussianNaiveBayes ({N_CLASSES} classes x {N_FEATURES} features), "
            f"open-loop pipelined NetClient over TCP, max_batch={MAX_BATCH}, "
            f"adaptive ceiling {CEILING_MS}ms"
        ),
        "loads": {
            load: {
                "offered_req_per_s": float(len(gaps) / gaps.sum())
                if gaps.sum() > 0 else 0.0,
                "configs": results[load],
            }
            for load, gaps in loads.items()
        },
        "high_load_adaptive_speedup_vs_per_request": speedup,
        "high_load_round_speedups": [speedup_of(r) for r in rounds["poisson_high"]],
        "low_load_adaptive_p50_ms": low["adaptive"]["latency_p50_ms"],
        "low_load_zero_delay_p50_ms": low["fixed_zero"]["latency_p50_ms"],
        "low_load_p50_bound_ms": p50_bound_ms,
        "wire": wire,
        "bit_identical_to_in_core_predict": True,  # asserted per response
    }

    # Acceptance bars: adaptive batching must beat per-request dispatch
    # under high open-loop load, by genuinely batching — and must cost
    # (within jitter) nothing at low load, because its window is 0 there.
    assert speedup >= 1.3, payload
    assert high["adaptive"]["mean_batch_rows"] > 2.0, high["adaptive"]
    assert low["adaptive"]["latency_p50_ms"] <= p50_bound_ms, payload
    assert low["adaptive"].get("learned_delay_ms", 0.0) == 0.0, low["adaptive"]
    # The raw-row frame must keep paying for itself where it was built to.
    assert wire["raw_row_over_jsonl"] >= 3.0, wire

    assert_metrics_clean(payload)
    Path("BENCH_net.json").write_text(json.dumps(payload, indent=2) + "\n")
    lines = []
    for load in results:
        offered = payload["loads"][load]["offered_req_per_s"]
        lines.append(f"{load} (~{offered:.0f} offered req/s):")
        for config in CONFIGS:
            metrics = results[load][config]
            extra = (
                f", learned window {metrics['learned_delay_ms']:.3f}ms"
                if "learned_delay_ms" in metrics else ""
            )
            lines.append(
                f"  {config:12s} {metrics['requests_per_s']:7.0f} req/s, "
                f"p50 {metrics['latency_p50_ms']:6.2f}ms / "
                f"p99 {metrics['latency_p99_ms']:7.2f}ms, "
                f"mean batch {metrics['mean_batch_rows']:.1f} rows{extra}"
            )
    lines.append(
        f"high-load adaptive vs per-request: {speedup:.2f}x; "
        f"low-load p50 {low['adaptive']['latency_p50_ms']:.2f}ms vs "
        f"bound {p50_bound_ms:.2f}ms"
    )
    lines.append(
        f"wire ({wire['workload']}): raw-row {wire['raw_row_rows_per_s']:.0f} rows/s "
        f"vs JSONL {wire['jsonl_rows_per_s']:.0f} rows/s = "
        f"{wire['raw_row_over_jsonl']:.1f}x"
    )
    emit("Network serving (adaptive delay vs fixed dispatch, open loop)",
         "\n".join(lines))
