"""Request-level serving: micro-batched ModelServer vs a naive predict loop.

The acceptance bar of the serving redesign: under 16 concurrent closed-loop
clients, the micro-batching :class:`~repro.serve.ModelServer` must sustain
**>= 3x** the throughput of a naive per-request predict loop (one in-core
``model.predict`` call per request) — while every served prediction stays
bit-identical to the in-core prediction for that row.

Why this is winnable at all: single-row inference pays the model's per-call
*fixed* cost (array dispatch, per-class ufunc setup) on every request, while
the server's dispatcher coalesces whatever requests are queued into one
batched call, amortising that fixed cost across the batch.  The workload is
a 30-class Gaussian naive Bayes — per-call cost dominated by the per-class
likelihood loop, exactly the profile of a real multi-class scorer — and the
clients are *closed-loop* (each waits for its response before sending the
next request), the hardest case for a batcher because the queue refills only
as fast as responses drain.

Writes ``BENCH_serving.json`` (uploaded by CI as an artifact): naive-loop
throughput, server throughput / speedup / mean batch size / p50+p99
queue-wait at 1, 4 and 16 concurrent clients, and the bit-identity check
result.  Every metric is asserted finite and non-negative here as well.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import assert_metrics_clean, emit
from repro.ml import GaussianNaiveBayes
from repro.serve import ModelServer

N_ROWS = 3000
N_FEATURES = 256
N_CLASSES = 30      # per-class likelihood loop = high fixed per-call cost
REQUESTS = 2000     # total requests per configuration
CLIENT_COUNTS = (1, 4, 16)
MAX_BATCH = 256


@pytest.fixture(scope="module")
def workload():
    """A fitted multi-class scorer plus its in-core predictions."""
    rng = np.random.default_rng(4242)
    X = rng.normal(size=(N_ROWS, N_FEATURES))
    y = (np.arange(N_ROWS) % N_CLASSES).astype(np.int64)
    model = GaussianNaiveBayes().fit(X, y)
    return X, model, model.predict(X)


def _run_naive_loop(X, model, expected) -> float:
    """The baseline: one in-core predict call per request, sequentially."""
    began = time.perf_counter()
    for i in range(REQUESTS):
        row = i % N_ROWS
        prediction = model.predict(X[row : row + 1])
        assert prediction[0] == expected[row]
    return time.perf_counter() - began


def _run_server(X, model, expected, clients: int):
    """Closed-loop clients hammering predict_one; returns (wall_s, stats)."""
    per_client = REQUESTS // clients
    mismatches = []
    with ModelServer(max_batch=MAX_BATCH, max_delay_ms=0.0) as server:
        server.publish("default", model)

        def client(index: int) -> None:
            for j in range(per_client):
                row = (index * per_client + j) % N_ROWS
                result = server.predict_one(X[row])
                # Bit-identity per response, against the in-core prediction.
                if result.predictions[0] != expected[row]:
                    mismatches.append((row, result.model_key))

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(clients)
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        stats = server.stats()
    assert not mismatches, f"served predictions diverged from in-core: {mismatches[:5]}"
    assert stats.requests == per_client * clients
    return wall, stats


@pytest.mark.benchmark(group="serving")
def test_micro_batched_serving_throughput(benchmark, workload):
    """Naive per-request loop vs the server at 1/4/16 concurrent clients."""
    X, model, expected = workload

    def sweep():
        naive_s = _run_naive_loop(X, model, expected)
        per_clients = {
            clients: _run_server(X, model, expected, clients)
            for clients in CLIENT_COUNTS
        }
        return naive_s, per_clients

    naive_s, per_clients = benchmark.pedantic(sweep, rounds=1, iterations=1)

    naive_rate = REQUESTS / naive_s if naive_s > 0 else 0.0
    payload = {
        "workload": (
            f"GaussianNaiveBayes ({N_CLASSES} classes x {N_FEATURES} features), "
            f"{REQUESTS} single-row requests, closed-loop clients, "
            f"max_batch={MAX_BATCH}, greedy dispatch"
        ),
        "requests": REQUESTS,
        "naive_loop": {
            "wall_s": naive_s,
            "requests_per_s": naive_rate,
        },
        "bit_identical_to_in_core_predict": True,  # asserted per response
    }
    for clients, (wall, stats) in per_clients.items():
        served = stats.requests
        rate = served / wall if wall > 0 else 0.0
        payload[f"clients_{clients}"] = {
            "wall_s": wall,
            "requests_per_s": rate,
            "speedup_vs_naive": rate / naive_rate if naive_rate > 0 else 0.0,
            "batches": stats.batches,
            "mean_batch_rows": stats.mean_batch_rows,
            "queue_wait_p50_ms": stats.queue_wait_percentile(50) * 1e3,
            "queue_wait_p99_ms": stats.queue_wait_percentile(99) * 1e3,
        }

    # Acceptance bar: >= 3x the naive loop's throughput at 16 clients, and
    # the batcher must genuinely batch (not just win on thread scheduling).
    assert payload["clients_16"]["speedup_vs_naive"] >= 3.0, payload["clients_16"]
    assert payload["clients_16"]["mean_batch_rows"] > 2.0, payload["clients_16"]

    assert_metrics_clean(payload)
    Path("BENCH_serving.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "Request-level serving (micro-batched server vs naive loop)",
        f"naive loop: {naive_rate:.0f} req/s\n"
        + "\n".join(
            f"{clients:2d} client(s): "
            f"{payload[f'clients_{clients}']['requests_per_s']:.0f} req/s "
            f"({payload[f'clients_{clients}']['speedup_vs_naive']:.2f}x, "
            f"mean batch {payload[f'clients_{clients}']['mean_batch_rows']:.1f} rows, "
            f"queue-wait p50 {payload[f'clients_{clients}']['queue_wait_p50_ms']:.2f}ms / "
            f"p99 {payload[f'clients_{clients}']['queue_wait_p99_ms']:.2f}ms)"
            for clients in CLIENT_COUNTS
        ),
    )


@pytest.mark.benchmark(group="serving")
def test_hot_swap_costs_no_downtime(benchmark, workload):
    """Requests keep flowing, and keep matching a published version, across
    repeated hot-swaps."""
    X, model, expected = workload
    y2 = ((np.arange(N_ROWS) + 1) % N_CLASSES).astype(np.int64)  # permuted labels
    retrained = GaussianNaiveBayes().fit(X, y2)
    by_version = {1: expected, 2: retrained.predict(X)}

    def run():
        errors = []
        with ModelServer(max_batch=64, max_delay_ms=0.0) as server:
            server.publish("default", model)
            stop = threading.Event()

            def hammer():
                i = 0
                while not stop.is_set():
                    row = i % N_ROWS
                    result = server.predict_one(X[row])
                    version = 1 if result.model_version % 2 == 1 else 2
                    if result.predictions[0] != by_version[version][row]:
                        errors.append(result.model_key)
                    i += 1

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(20):  # land 20 hot-swaps under load
                server.publish("default", retrained if _ % 2 == 0 else model)
                time.sleep(0.002)
            stop.set()
            for thread in threads:
                thread.join()
            stats = server.stats()
        return errors, stats

    errors, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not errors, errors[:5]
    assert stats.errors == 0
    assert stats.requests > 0
    emit(
        "Hot-swap under load",
        f"{stats.requests} requests served across 20 hot-swaps, "
        f"0 errors, 0 mismatches",
    )
