"""Streaming-vs-local inference over the chunk pipeline.

The serving half of the streaming story: ``session.predict(...,
engine="streaming")`` must produce *bit-identical* predictions to the in-core
``model.predict`` while holding only one chunk of input rows (plus the
prefetcher's buffers) — that is what makes serving a sharded dataset larger
than RAM viable at all.

This benchmark times the same fitted model through ``engine="local"`` and
``engine="streaming"`` on the sharded backend, verifies the outputs are
bit-identical for both ``predict`` and ``predict_proba``, and writes
``BENCH_predict_streaming.json`` (uploaded by the CI benchmark smoke job):
wall times, serving throughput, and the chunk pipeline's read / I/O-wait /
compute accounting.  Every emitted metric is asserted finite and non-negative
before the file is written.
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
def serving_setup(tmp_path_factory):
    """A sharded dataset plus a model fitted once, shared by the benchmarks."""
    rng = np.random.default_rng(321)
    X = rng.normal(size=(6000, 64))
    y = (X @ rng.normal(size=64) > 0).astype(np.int64)
    tmp_path = tmp_path_factory.mktemp("bench_predict")
    session = Session()
    spec = f"shard://{tmp_path}/serve_shards"
    session.create(spec, X, y, shard_rows=1024)
    model = session.fit(
        LogisticRegression(max_iterations=5, solver="sgd", chunk_size=1024, seed=0),
        session.open(spec),
    ).model
    yield session, spec, model, X
    session.close()


@pytest.mark.benchmark(group="streaming")
def test_streaming_vs_local_predict(benchmark, serving_setup):
    """Serve the same model through the local and the streaming engine."""
    session, spec, model, X = serving_setup

    def serve_both():
        # The streaming engine sizes chunks from the model's chunk_size
        # (1024), matching the shard size — every chunk is a zero-copy view.
        results = {}
        for engine in ("local", "streaming"):
            dataset = session.open(spec)
            results[engine] = session.predict(dataset, model, engine=engine)
        return results

    results = benchmark.pedantic(serve_both, rounds=1, iterations=1)
    local, streaming = results["local"], results["streaming"]

    # Acceptance bar: bit-identical serving across engines.
    assert np.array_equal(local.predictions, model.predict(np.asarray(X)))
    assert np.array_equal(streaming.predictions, local.predictions)

    proba = session.predict(
        session.open(spec), model, method="predict_proba", engine="streaming"
    )
    assert np.array_equal(proba.predictions, model.predict_proba(np.asarray(X)))

    details = streaming.details
    rows = streaming.n_rows
    payload = {
        "workload": "LogisticRegression.predict on shard:// (6000 x 64)",
        "rows": rows,
        "local_wall_time_s": local.wall_time_s,
        "streaming_wall_time_s": streaming.wall_time_s,
        "streaming_rows_per_s": (
            rows / streaming.wall_time_s if streaming.wall_time_s > 0 else 0.0
        ),
        "chunks": details["chunks"],
        "chunk_rows": details["chunk_rows"],
        "bytes_read": details["bytes_read"],
        "read_s": details["read_s"],
        "io_wait_s": details["io_wait_s"],
        "compute_s": details["compute_s"],
        "io_overlap": details["io_overlap"],
    }
    assert_metrics_clean(payload)
    assert details["chunks"] > 0 and details["bytes_read"] == rows * 64 * 8
    if payload["io_overlap"] is not None:
        assert 0.0 <= payload["io_overlap"] <= 1.0
    Path("BENCH_predict_streaming.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        "Streaming vs local inference (sharded backend)",
        "\n".join(f"{key}: {value}" for key, value in payload.items()),
    )
