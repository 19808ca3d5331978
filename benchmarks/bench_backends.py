"""Storage-backend overhead of the unified Session API.

The redesign's promise is that the `Dataset`/`Session` indirection is free:
training through `session.fit` on any backend must produce the identical
model, and the per-backend overhead at laptop scale must stay small (the
memory backend is the floor; mmap adds page-cache traffic; sharding adds
chunk stitching at shard boundaries).  This benchmark times the same
logistic-regression workload through all three backends and prints the
resulting coefficients' maximum divergence (which must be zero).

The streaming-vs-local comparison additionally writes ``BENCH_streaming.json``
(consumed by the CI benchmark smoke job): wall time of the same SGD workload
through ``engine="local"`` and ``engine="streaming"`` on the sharded backend,
plus the chunk pipeline's read / I/O-wait / compute accounting, so regressions
in the prefetch overlap are visible as data, not vibes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import assert_metrics_clean, emit
from repro.api import Session
from repro.ml import LogisticRegression


@pytest.fixture(scope="module")
def backend_specs(tmp_path_factory):
    rng = np.random.default_rng(123)
    X = rng.normal(size=(6000, 64))
    y = (X @ rng.normal(size=64) > 0).astype(np.int64)
    tmp_path = tmp_path_factory.mktemp("bench_backends")
    session = Session()
    session.create("memory://bench", X, y)
    session.create(f"mmap://{tmp_path}/bench.m3", X, y)
    session.create(f"shard://{tmp_path}/bench_shards", X, y, shard_rows=1024)
    specs = {
        "memory": "memory://bench",
        "mmap": f"mmap://{tmp_path}/bench.m3",
        "shard": f"shard://{tmp_path}/bench_shards",
    }
    yield session, specs
    session.close()


@pytest.mark.benchmark(group="backends")
@pytest.mark.parametrize("backend", ["memory", "mmap", "shard"])
def test_backend_training_overhead(benchmark, backend_specs, backend):
    session, specs = backend_specs

    def train():
        dataset = session.open(specs[backend])
        return session.fit(LogisticRegression(max_iterations=10), dataset)

    result = benchmark.pedantic(train, rounds=1, iterations=1)
    emit(
        f"Session.fit through the {backend} backend",
        (
            f"wall time: {result.wall_time_s:.3f}s\n"
            f"engine: {result.engine}\n"
            f"final loss: {result.model.result_.value:.6f}"
        ),
    )
    assert hasattr(result.model, "coef_")


@pytest.mark.benchmark(group="backends")
def test_backend_transparency(benchmark, backend_specs):
    session, specs = backend_specs

    def train_all():
        coefs = {}
        for backend, spec in specs.items():
            dataset = session.open(spec)
            result = session.fit(LogisticRegression(max_iterations=10), dataset)
            coefs[backend] = result.model.coef_
        return coefs

    coefs = benchmark.pedantic(train_all, rounds=1, iterations=1)
    deltas = {
        backend: float(np.max(np.abs(coef - coefs["memory"])))
        for backend, coef in coefs.items()
    }
    emit(
        "Transparency across storage backends (max |coef - coef(memory)|)",
        "\n".join(f"{backend}: {delta:.2e}" for backend, delta in deltas.items()),
    )
    assert all(delta == 0.0 for delta in deltas.values())


@pytest.mark.benchmark(group="streaming")
def test_streaming_vs_local(benchmark, backend_specs):
    """Same SGD workload through the local and the streaming engine.

    Trains on the sharded backend (the streaming engine's target workload),
    checks the two engines learn equivalent models, and emits
    ``BENCH_streaming.json`` with wall times plus the chunk pipeline's
    I/O-wait vs compute accounting.
    """
    session, specs = backend_specs
    model_args = dict(max_iterations=5, solver="sgd", chunk_size=1024, seed=0)

    def train_both():
        results = {}
        for engine in ("local", "streaming"):
            dataset = session.open(specs["shard"])
            results[engine] = session.fit(
                LogisticRegression(**model_args), dataset, engine=engine
            )
        return results

    results = benchmark.pedantic(train_both, rounds=1, iterations=1)
    local, streaming = results["local"], results["streaming"]
    coef_delta = float(np.max(np.abs(local.model.coef_ - streaming.model.coef_)))
    details = streaming.details
    payload = {
        "workload": "LogisticRegression(solver='sgd', 5 epochs) on shard://",
        "local_wall_time_s": local.wall_time_s,
        "streaming_wall_time_s": streaming.wall_time_s,
        "max_coef_delta_vs_local": coef_delta,
        "chunks": details["chunks"],
        "chunk_rows": details["chunk_rows"],
        "passes": details["passes"],
        "bytes_read": details["bytes_read"],
        "read_s": details["read_s"],
        "io_wait_s": details["io_wait_s"],
        "compute_s": details["compute_s"],
        "io_overlap": details["io_overlap"],
    }
    assert_metrics_clean(payload)
    Path("BENCH_streaming.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "Streaming vs local engine (sharded backend)",
        "\n".join(f"{key}: {value}" for key, value in payload.items()),
    )
    # Shard-aligned chunking keeps the SGD batch sequence identical here
    # (shard_rows=1024 == chunk_size), so the models must agree tightly.
    assert coef_delta < 1e-8
    assert details["chunks"] > 0 and details["bytes_read"] > 0
