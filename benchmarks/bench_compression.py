"""Compressed (zlib) vs raw (mapped) sharded streaming on a throttled device.

The acceptance bar of the compressed shard format: on an out-of-core sharded
dataset behind a modelled ~150 MB/s device, streaming *fit* over zlib v2
shards must beat the same fit over raw mapped shards by >= 1.3x throughput —
because the readers pull ~10x fewer bytes off the device, then decompress
what they fetched on the same threads — and predictions must stay bit-identical (zlib is
lossless and float64 storage is exact).

As in ``bench_parallel_pipeline``, CI page caches make real reads free, so
the device is modelled explicitly: ``benchmarks.conftest``'s
``ThrottledMatrix`` charges every fetch ``read_latency_s + bytes /
sequential_read_bw`` of :data:`DEVICE` as ``time.sleep`` — raw shards pay
for the logical bytes, compressed shards pay only for the *coded* bytes they
actually fetch.
``time.sleep`` releases the GIL like a blocking ``read(2)`` so reader threads
overlap the stalls realistically; decode cost is not modelled — it is the
real zlib CPU burn on the reader threads.

Writes ``BENCH_compression.json``: wall times and rows/s for raw vs zlib
across block sizes x fit/predict, the compression ratio, the speedups, and
the bit-identity / allocation-discipline results.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import (
    ThrottledMatrix,
    assert_metrics_clean,
    emit,
    slow_device,
)
from repro.api.chunks import ChunkBufferPool, open_chunk_stream
from repro.api.dataset import Dataset
from repro.api.engines import StreamingEngine
from repro.api.sharded import write_sharded_dataset
from repro.api.storage import StorageHandle
from repro.ml import LogisticRegression

ROWS = 8000
COLS = 64
SHARDS = 8            # 1000-row shards
CHUNK_ROWS = 250      # 32 chunks per pass
BLOCK_SIZES = (250, 1000)
EPOCHS = 3
# Per-fetch latency floor 0.2 ms, ~30 MB/s (cold object store / NFS).
DEVICE = slow_device(latency_s=0.0002, bandwidth=30e6)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The same compressible dataset written raw and as zlib v2 variants."""
    rng = np.random.default_rng(99)
    # Small-integer features: realistic for count/categorical data and
    # compressible (~10x under zlib) — random doubles would not compress.
    X = rng.integers(0, 4, size=(ROWS, COLS)).astype(np.float64)
    scores = X @ rng.normal(size=COLS)
    y = (scores > np.median(scores)).astype(np.int64)
    root = tmp_path_factory.mktemp("bench_compression")
    raw_dir = root / "raw"
    write_sharded_dataset(raw_dir, X, y, shard_rows=ROWS // SHARDS)
    zlib_dirs = {}
    for block_rows in BLOCK_SIZES:
        directory = root / f"zlib-{block_rows}"
        write_sharded_dataset(directory, X, y, shard_rows=ROWS // SHARDS,
                              codec="zlib", block_rows=block_rows)
        zlib_dirs[block_rows] = directory
    model = LogisticRegression(
        max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
    ).fit(X, y)
    return raw_dir, zlib_dirs, X, y, model


def _open(directory) -> Dataset:
    matrix = ThrottledMatrix(directory, DEVICE)
    return Dataset(
        StorageHandle(matrix=matrix, labels=matrix.lazy_labels),
        spec=f"shard://{directory}",
    )


def _engine() -> StreamingEngine:
    return StreamingEngine(chunk_rows=CHUNK_ROWS, io_workers=2, compute_workers=2)


@pytest.mark.benchmark(group="compression")
def test_compressed_streaming_throughput(benchmark, workload):
    """raw vs zlib x block sizes x fit/predict on the modelled device."""
    raw_dir, zlib_dirs, X, y, fitted = workload

    def run_fit(directory):
        dataset = _open(directory)
        model = LogisticRegression(
            max_iterations=EPOCHS, solver="sgd", chunk_size=CHUNK_ROWS, seed=0
        )
        result = _engine().fit(model, dataset)
        dataset.close()
        return result

    def run_predict(directory):
        dataset = _open(directory)
        result = _engine().predict(fitted, dataset)
        dataset.close()
        return result

    def sweep():
        results = {"fit": {}, "predict": {}}
        results["fit"]["raw"] = run_fit(raw_dir)
        results["predict"]["raw"] = run_predict(raw_dir)
        for block_rows, directory in zlib_dirs.items():
            results["fit"][block_rows] = run_fit(directory)
            results["predict"][block_rows] = run_predict(directory)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Bit-identity: zlib-on-float64 is lossless, so every compressed
    # configuration serves exactly the in-core predictions.
    expected = fitted.predict(X)
    for label, result in results["predict"].items():
        assert np.array_equal(result.predictions, expected), label
    # And every configuration learns the identical model.
    raw_coef = results["fit"]["raw"].model.coef_
    for label, result in results["fit"].items():
        np.testing.assert_array_equal(result.model.coef_, raw_coef, err_msg=str(label))

    rows_trained = ROWS * EPOCHS
    payload = {
        "workload": (
            f"LogisticRegression sgd on {SHARDS}-shard shard:// "
            f"({ROWS} x {COLS} small-int features, {EPOCHS} epochs, "
            f"{DEVICE.name})"
        ),
        "rows": ROWS,
        "shards": SHARDS,
        "chunk_rows": CHUNK_ROWS,
    }
    for phase, rows_done in (("fit", rows_trained), ("predict", ROWS)):
        raw_wall = results[phase]["raw"].wall_time_s
        payload[phase] = {
            "raw_wall_s": raw_wall,
            "raw_rows_per_s": rows_done / raw_wall if raw_wall > 0 else 0.0,
        }
        for block_rows in BLOCK_SIZES:
            result = results[phase][block_rows]
            wall = result.wall_time_s
            details = result.details
            key = f"zlib_block_{block_rows}"
            payload[phase][f"{key}_wall_s"] = wall
            payload[phase][f"{key}_rows_per_s"] = (
                rows_done / wall if wall > 0 else 0.0
            )
            payload[phase][f"{key}_speedup"] = raw_wall / wall if wall > 0 else 0.0
            payload[phase][f"{key}_ratio"] = details.get("ratio") or 0.0
            payload[phase][f"{key}_decode_s"] = details.get("decode_s", 0.0)

    # Acceptance bar: chunk-matched blocks stream fit >= 1.3x over raw.
    best_fit = max(
        payload["fit"][f"zlib_block_{b}_speedup"] for b in BLOCK_SIZES
    )
    assert best_fit >= 1.3, payload["fit"]
    # And no compressed configuration may fall below raw, fit or predict.
    for phase in ("fit", "predict"):
        for block_rows in BLOCK_SIZES:
            assert payload[phase][f"zlib_block_{block_rows}_speedup"] >= 1.0, payload[phase]
    # The modelled device only saw the coded bytes: the ratio must be real.
    assert payload["fit"][f"zlib_block_{BLOCK_SIZES[0]}_ratio"] > 2.0

    assert_metrics_clean(payload)
    Path("BENCH_compression.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "Compressed shard streaming (zlib vs raw mapped)",
        "\n".join(
            f"{phase}: raw {payload[phase]['raw_rows_per_s']:.0f} rows/s, "
            + ", ".join(
                f"zlib/{b} {payload[phase][f'zlib_block_{b}_speedup']:.2f}x"
                for b in BLOCK_SIZES
            )
            for phase in ("fit", "predict")
        ),
    )


@pytest.mark.benchmark(group="compression")
def test_compressed_predict_allocation_free(benchmark, workload):
    """Decode lands in the preallocated ring: peak allocation stays bounded."""
    _raw_dir, zlib_dirs, X, _y, fitted = workload
    block_rows = BLOCK_SIZES[0]
    pool = ChunkBufferPool(
        buffers=4, chunk_rows=CHUNK_ROWS, n_cols=COLS,
        dtype=np.float64, label_dtype=np.int64,
    )

    def serve():
        with ThrottledMatrix(zlib_dirs[block_rows], DEVICE) as matrix:
            tracemalloc.start()
            with open_chunk_stream(matrix, chunk_rows=CHUNK_ROWS, io_workers=2,
                                   decode_workers=2, buffer_pool=pool) as stream:
                predictions = fitted.predict_streaming(stream, ROWS, workers=2)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        return predictions, peak

    predictions, peak = benchmark.pedantic(serve, rounds=1, iterations=1)
    assert np.array_equal(predictions, fitted.predict(X))
    assert pool.leases_served > pool.buffers  # the ring actually recycled
    assert pool.available == pool.buffers     # every lease came home
    output_bytes = predictions.nbytes
    chunk_bytes = CHUNK_ROWS * COLS * 8
    # The bound: the ring, the output buffer, coded payloads in flight and a
    # few chunks of scratch — never the decoded matrix (~4 MB).
    budget = pool.nbytes + output_bytes + 8 * chunk_bytes
    assert peak <= budget, f"peak {peak} exceeds budget {budget}"
    emit(
        "Compressed predict allocation bound",
        f"peak traced allocation {peak / 1e6:.2f} MB <= budget "
        f"{budget / 1e6:.2f} MB (ring {pool.nbytes / 1e6:.2f} MB, "
        f"{pool.leases_served} leases served)",
    )
