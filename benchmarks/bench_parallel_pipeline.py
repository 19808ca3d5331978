"""Multi-reader vs single-reader streaming over the parallel chunk pipeline.

The acceptance bar of the parallel I/O refactor: on a sharded out-of-core
dataset, fanning the chunk reads across a reader pool must beat the default
stream (one reader of the same executor) by >= 1.3x throughput for *both* streaming
fit and streaming predict — while predictions stay bit-identical to in-core
and peak memory stays bounded by the preallocated buffer ring.

CI machines keep small test datasets entirely in page cache, where mmap reads
cost microseconds and no reader pool can show its worth.  The benchmark
therefore models the *device* explicitly: :class:`ThrottledShardedMatrix`
charges every gather a seek latency plus bytes/bandwidth (a ~200 MB/s NVMe-ish
profile), implemented as a real ``time.sleep`` — which releases the GIL
exactly like a blocking ``read(2)``, so reader threads genuinely overlap the
stalls the way they overlap real device waits.  Everything else (chunk
planning, buffer pool, reorder buffer, partial_fit, predict) runs for real.

Writes ``BENCH_parallel.json`` (consumed and validated by CI): wall times and
rows/s for 1/2/4 readers x fit/predict, the speedups over the single-reader
baseline, and the bit-identity / memory-bound check results.  Every metric is
asserted finite and non-negative here as well, so a NaN regression fails the
benchmark itself, not just the CI validator.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.api.chunks import ChunkBufferPool
from repro.api.dataset import Dataset
from repro.api.engines import StreamingEngine
from repro.api.sharded import ShardedMatrix, write_sharded_dataset
from repro.api.storage import StorageHandle
from repro.ml import LogisticRegression

ROWS = 6000
COLS = 64
SHARDS = 8          # >= 4-shard out-of-core layout
CHUNK_ROWS = 250    # 24 chunks per pass
EPOCHS = 3
SEEK_S = 0.0002     # per-gather latency floor
BANDWIDTH = 200e6   # modelled device: ~200 MB/s sequential


class ThrottledShardedMatrix(ShardedMatrix):
    """A ShardedMatrix whose gathers pay a modelled device latency.

    ``time.sleep`` releases the GIL like a blocking device read, so parallel
    readers overlap these stalls exactly as they overlap real I/O waits.
    """

    def _charge(self, rows: int) -> None:
        time.sleep(SEEK_S + rows * self.manifest.cols * self.dtype.itemsize / BANDWIDTH)

    def _gather_range(self, start, stop):
        self._charge(max(0, min(stop, self.manifest.rows) - max(0, start)))
        return super()._gather_range(start, stop)

    def gather_into(self, start, stop, out):
        self._charge(max(0, min(stop, self.manifest.rows) - max(0, start)))
        return super().gather_into(start, stop, out)


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
    matrix = ThrottledShardedMatrix(directory)
    return Dataset(
        StorageHandle(matrix=matrix, labels=matrix.lazy_labels),
        spec=f"shard://{directory}",
    )


def _engine(io_workers) -> StreamingEngine:
    return StreamingEngine(chunk_rows=CHUNK_ROWS, io_workers=io_workers)


def _assert_metrics_clean(payload: dict, prefix: str = "") -> None:
    """No emitted metric may be NaN or negative, at any nesting level."""
    for key, value in payload.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            _assert_metrics_clean(value, prefix=f"{label}.")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        elif isinstance(value, (int, float)):
            assert not math.isnan(value), f"{label} is NaN"
            assert value >= 0, f"{label} is negative: {value}"


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

    _assert_metrics_clean(payload)
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
    engine = StreamingEngine(
        chunk_rows=straddling_rows, align_shards=False,
        io_workers=4, compute_workers=2, buffer_pool=pool,
    )

    def serve():
        dataset = _open_throttled(directory)
        tracemalloc.start()
        result = engine.predict(fitted, dataset)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dataset.close()
        return result, peak

    result, peak = benchmark.pedantic(serve, rounds=1, iterations=1)
    assert np.array_equal(result.predictions, fitted.predict(X))
    assert pool.leases_served > pool.buffers  # the ring actually recycled
    output_bytes = result.predictions.nbytes
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
