"""Runtime-analysis overhead: instrumented streaming fit/predict vs baseline.

The lock-order / lease instrumentation behind ``REPRO_ANALYSIS=1`` is meant
to be cheap enough to leave on in CI: every ``make_lock``/``make_condition``
in the chunk pipeline becomes an :class:`~repro.analysis.runtime.OrderedLock`
(per-acquisition rank check + held-stack bookkeeping) and every
:class:`~repro.api.chunks.BufferLease` activation/release reports to the
global lease tracker.  The acceptance bar from the analyzer spec: streaming
fit and predict with instrumentation on must stay within **1.10x** of the
uninstrumented wall time.

Both configurations are timed best-of-``ROUNDS`` on the same on-disk sharded
workload (chunk boundaries deliberately straddle shards, so the leased buffer
path — the instrumented hot path — is exercised).  A small absolute epsilon
keeps sub-100ms timings from flaking the ratio on noisy CI machines.

Writes ``BENCH_analysis.json`` (uploaded by CI as an artifact): wall times per
configuration, the fit/predict overhead ratios, and proof the instrumented
run really was instrumented (leases tracked, ordered locks constructed).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import assert_metrics_clean, emit, stream_pairs
from repro.analysis.runtime import GRAPH, LEASES, set_analysis_enabled
from repro.api.chunks import open_chunk_stream
from repro.api.sharded import ShardedMatrix, write_sharded_dataset
from repro.ml import LogisticRegression

ROWS = 16000
COLS = 64
SHARDS = 8
CHUNK_ROWS = 900    # does not divide the 2000-row shards: chunks straddle
EPOCHS = 2
ROUNDS = 3          # best-of-N per configuration
PREDICT_PASSES = 5  # predict is fast; time several passes to beat noise
MAX_RATIO = 1.10    # acceptance bar: <= 1.10x the uninstrumented wall time
EPSILON_S = 0.050   # absolute slack so millisecond noise cannot flake the bar


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A sharded on-disk dataset plus a model fitted once in-core."""
    rng = np.random.default_rng(99)
    X = rng.normal(size=(ROWS, COLS))
    y = (X @ rng.normal(size=COLS) > 0).astype(np.int64)
    directory = tmp_path_factory.mktemp("bench_analysis") / "shards"
    write_sharded_dataset(directory, X, y, shard_rows=ROWS // SHARDS)
    fitted = LogisticRegression(
        max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
    ).fit(X, y)
    return directory, fitted


def _stream(matrix, labels=None):
    # align_shards=False forces straddling chunks through the leased buffer
    # ring — the path the runtime instrumentation actually hooks.
    return open_chunk_stream(
        matrix, labels=labels, chunk_rows=CHUNK_ROWS, align_shards=False, io_workers=2
    )


def _time_streaming(directory, fitted) -> dict:
    """Best-of-ROUNDS wall times for one streaming fit and one predict."""
    fit_s = predict_s = math.inf
    for _ in range(ROUNDS):
        with ShardedMatrix(directory) as matrix:
            model = LogisticRegression(
                max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
            )
            began = time.perf_counter()
            model.fit_streaming(
                lambda: stream_pairs(_stream(matrix, matrix.lazy_labels)),
                classes=fitted.classes_,
            )
            fit_s = min(fit_s, time.perf_counter() - began)

            began = time.perf_counter()
            for _ in range(PREDICT_PASSES):
                with _stream(matrix) as stream:
                    fitted.predict_streaming(stream, ROWS)
            predict_s = min(predict_s, time.perf_counter() - began)
    return {"fit_s": fit_s, "predict_s": predict_s}


@pytest.mark.benchmark(group="analysis-overhead")
def test_analysis_overhead_within_budget(benchmark, workload):
    """Instrumented streaming fit/predict stays within 1.10x of baseline."""
    directory, fitted = workload

    def sweep():
        # Warm the page cache and JIT-ish lazy imports once, untimed, so the
        # baseline (measured first) doesn't eat the cold-start cost.
        _time_streaming(directory, fitted)
        baseline = _time_streaming(directory, fitted)

        previous = set_analysis_enabled(True)
        LEASES.reset()
        LEASES.enabled = True
        try:
            instrumented = _time_streaming(directory, fitted)
            leases_tracked = LEASES.activated_total
        finally:
            LEASES.enabled = False
            LEASES.reset()
            GRAPH.clear()
            set_analysis_enabled(previous)
        return baseline, instrumented, leases_tracked

    baseline, instrumented, leases_tracked = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # The instrumented run must actually have been instrumented: straddling
    # chunks lease pooled buffers, and every lease reports to the tracker.
    assert leases_tracked > 0

    payload = {
        "rows": ROWS,
        "cols": COLS,
        "chunk_rows": CHUNK_ROWS,
        "rounds": ROUNDS,
        "max_ratio": MAX_RATIO,
        "epsilon_s": EPSILON_S,
        "baseline": baseline,
        "instrumented": instrumented,
        "leases_tracked": leases_tracked,
        "overhead": {
            phase: instrumented[f"{phase}_s"] / baseline[f"{phase}_s"]
            for phase in ("fit", "predict")
        },
    }
    assert_metrics_clean(payload)
    Path("BENCH_analysis.json").write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "Runtime analysis overhead (streaming fit/predict)",
        "\n".join(
            f"{phase:8s} baseline {baseline[f'{phase}_s']:.3f}s  "
            f"instrumented {instrumented[f'{phase}_s']:.3f}s  "
            f"ratio {payload['overhead'][phase]:.3f}x"
            for phase in ("fit", "predict")
        ),
    )

    for phase in ("fit", "predict"):
        assert (
            instrumented[f"{phase}_s"]
            <= baseline[f"{phase}_s"] * MAX_RATIO + EPSILON_S
        ), (
            f"{phase}: instrumented {instrumented[f'{phase}_s']:.3f}s exceeds "
            f"{MAX_RATIO}x baseline {baseline[f'{phase}_s']:.3f}s"
        )
