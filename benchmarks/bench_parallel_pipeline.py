"""Multi-reader vs single-reader streaming over the parallel chunk pipeline.

The acceptance bar of the parallel I/O refactor: on a sharded out-of-core
dataset, fanning the chunk reads across a reader pool must beat the default
stream (one reader of the same executor) by >= 1.3x throughput for *both* streaming
fit and streaming predict — while predictions stay bit-identical to in-core
and peak memory stays bounded by the preallocated buffer ring.

CI machines keep small test datasets entirely in page cache, where mmap reads
cost microseconds and no reader pool can show its worth.  The benchmark
therefore models the *device* explicitly: ``benchmarks.conftest``'s
:class:`ThrottledMatrix` charges every gather a seek latency plus
bytes/bandwidth of a ~200 MB/s NVMe-ish :class:`~repro.vmem.disk.DiskProfile`,
as a real ``time.sleep`` — which releases the GIL exactly like a blocking
``read(2)``, so reader threads genuinely overlap the stalls the way they
overlap real device waits.  Everything else (chunk planning, buffer pool,
the plan-order hand-back, partial_fit, predict) runs for real.

Writes ``BENCH_parallel.json`` (uploaded by CI as an artifact): wall times and
rows/s for 1/2/4 readers x fit/predict, the speedups over the single-reader
baseline, and the bit-identity / memory-bound check results.  Every metric is
asserted finite and non-negative before the file is written.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import ThrottledMatrix, assert_metrics_clean, emit, slow_device
from repro.api.chunks import ChunkBufferPool, open_chunk_stream
from repro.api.dataset import Dataset
from repro.api.engines import StreamingEngine
from repro.api.sharded import write_sharded_dataset
from repro.api.storage import StorageHandle
from repro.ml import LogisticRegression

ROWS = 6000
COLS = 64
SHARDS = 8          # >= 4-shard out-of-core layout
CHUNK_ROWS = 250    # 24 chunks per pass
EPOCHS = 3
# Per-gather latency floor 0.2 ms, ~200 MB/s sequential.
DEVICE = slow_device(latency_s=0.0002, bandwidth=200e6)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A sharded dataset on disk plus a model fitted once in-core."""
    rng = np.random.default_rng(1234)
    X = rng.normal(size=(ROWS, COLS))
    y = (X @ rng.normal(size=COLS) > 0).astype(np.int64)
    directory = tmp_path_factory.mktemp("bench_parallel") / "shards"
    write_sharded_dataset(directory, X, y, shard_rows=ROWS // SHARDS)
    model = LogisticRegression(
        max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
    ).fit(X, y)
    return directory, X, y, model


def _open_throttled(directory) -> Dataset:
    matrix = ThrottledMatrix(directory, DEVICE)
    return Dataset(
        StorageHandle(matrix=matrix, labels=matrix.lazy_labels),
        spec=f"shard://{directory}",
    )


def _engine(io_workers) -> StreamingEngine:
    return StreamingEngine(chunk_rows=CHUNK_ROWS, io_workers=io_workers)


@pytest.mark.benchmark(group="parallel-pipeline")
def test_parallel_pipeline_throughput(benchmark, workload):
    """1/2/4 readers x fit/predict vs the single-reader baseline."""
    directory, X, y, fitted = workload

    def run_fit(io_workers):
        dataset = _open_throttled(directory)
        model = LogisticRegression(
            max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
        )
        result = _engine(io_workers).fit(model, dataset)
        dataset.close()
        return result

    def run_predict(io_workers):
        dataset = _open_throttled(directory)
        result = _engine(io_workers).predict(fitted, dataset)
        dataset.close()
        return result

    def sweep():
        results = {"fit": {}, "predict": {}}
        # io_workers=None is the default stream: one reader of the same executor.
        for label, io_workers in (("baseline", None), (1, 1), (2, 2), (4, 4)):
            results["fit"][label] = run_fit(io_workers)
            results["predict"][label] = run_predict(io_workers)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Bit-identity: every configuration serves the in-core predictions.
    expected = fitted.predict(X)
    for label, result in results["predict"].items():
        assert np.array_equal(result.predictions, expected), label
    # Plan-order re-emission: every configuration learns the same model.
    baseline_coef = results["fit"]["baseline"].model.coef_
    for label, result in results["fit"].items():
        np.testing.assert_array_equal(result.model.coef_, baseline_coef, err_msg=str(label))

    rows_trained = ROWS * EPOCHS
    payload = {
        "workload": (
            f"LogisticRegression sgd on {SHARDS}-shard shard:// "
            f"({ROWS} x {COLS}, {EPOCHS} epochs, modelled ~200 MB/s device)"
        ),
        "rows": ROWS,
        "shards": SHARDS,
        "chunk_rows": CHUNK_ROWS,
    }
    for phase, rows_done in (("fit", rows_trained), ("predict", ROWS)):
        base_wall = results[phase]["baseline"].wall_time_s
        payload[phase] = {
            "baseline_wall_s": base_wall,
            "baseline_rows_per_s": rows_done / base_wall if base_wall > 0 else 0.0,
        }
        for readers in (1, 2, 4):
            result = results[phase][readers]
            wall = result.wall_time_s
            payload[phase][f"readers_{readers}_wall_s"] = wall
            payload[phase][f"readers_{readers}_rows_per_s"] = (
                rows_done / wall if wall > 0 else 0.0
            )
            payload[phase][f"readers_{readers}_speedup"] = (
                base_wall / wall if wall > 0 else 0.0
            )
            payload[phase][f"readers_{readers}_hints"] = (
                result.details["hints_applied"]
            )
        payload[phase]["io_overlap_readers_4"] = (
            results[phase][4].details["io_overlap"] or 0.0
        )

    # Acceptance bar: >= 1.3x throughput for multi-reader fit AND predict.
    assert payload["fit"]["readers_4_speedup"] >= 1.3, payload["fit"]
    assert payload["predict"]["readers_4_speedup"] >= 1.3, payload["predict"]

    assert_metrics_clean(payload)
    Path("BENCH_parallel.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "Parallel chunk pipeline (multi-reader vs single-reader)",
        "\n".join(
            f"{phase}: baseline {payload[phase]['baseline_rows_per_s']:.0f} rows/s, "
            + ", ".join(
                f"{r} readers {payload[phase][f'readers_{r}_speedup']:.2f}x"
                for r in (1, 2, 4)
            )
            for phase in ("fit", "predict")
        ),
    )


@pytest.mark.benchmark(group="parallel-pipeline")
def test_parallel_predict_memory_bounded_by_buffer_pool(benchmark, workload):
    """Peak allocation on the stitched-chunk path stays under ring + output."""
    directory, X, _, fitted = workload
    # 400-row chunks over 750-row shards: most chunks straddle a boundary,
    # so (with alignment off) they flow through the buffer ring.
    straddling_rows = 400
    pool = ChunkBufferPool(
        buffers=4, chunk_rows=straddling_rows, n_cols=COLS,
        dtype=np.float64, label_dtype=np.int64,
    )

    def serve():
        with ThrottledMatrix(directory, DEVICE) as matrix:
            tracemalloc.start()
            with open_chunk_stream(matrix, chunk_rows=straddling_rows, align_shards=False,
                                   io_workers=4, buffer_pool=pool) as stream:
                predictions = fitted.predict_streaming(stream, ROWS, workers=2)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        return predictions, peak

    predictions, peak = benchmark.pedantic(serve, rounds=1, iterations=1)
    assert np.array_equal(predictions, fitted.predict(X))
    assert pool.leases_served > pool.buffers  # the ring actually recycled
    output_bytes = predictions.nbytes
    chunk_bytes = straddling_rows * COLS * 8
    # The bound: the preallocated ring, the output buffer, and a few chunks
    # of transient per-worker scratch — never the stitched matrix (~3 MB).
    budget = pool.nbytes + output_bytes + 6 * chunk_bytes
    assert peak <= budget, f"peak {peak} exceeds budget {budget}"
    assert pool.available == pool.buffers  # every lease came home
    emit(
        "Parallel predict memory bound",
        f"peak traced allocation {peak / 1e6:.2f} MB <= budget {budget / 1e6:.2f} MB "
        f"(ring {pool.nbytes / 1e6:.2f} MB, {pool.leases_served} leases served)",
    )
