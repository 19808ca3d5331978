"""Appendable datasets under load: mixed append/scan cost and delta training.

Three acceptance bars for the appendable-dataset stack:

1. **Snapshot scans are (nearly) free under appends.**  A reader pinned to a
   manifest generation scans its snapshot while a writer commits batch after
   batch into the same directory; the scan may regress at most 10% against
   the identical scan on a quiescent (static) dataset, read as the median of
   alternating back-to-back pairs.  Generation isolation means the reader
   never re-reads a manifest, never sees tail rewrites, and never blocks on
   the appender's lock.
2. **Delta training beats full refits.**  Catching a model up on an appended
   delta (``partial_fit`` over only the new rows, the ``m3 traind`` loop)
   must be >= 3x faster than refitting from scratch over the grown dataset —
   the whole point of tailing generations instead of re-training per commit.

3. **A v2 commit costs what its batch costs.**  The appender codes a tail
   block once, when it fills, so a zlib commit into a nearly full tail may
   take at most 2x a commit into a nearly empty one (real zlib, no device
   model — the cost in question is CPU), and the codec is called at most
   ``ceil(batch / block_rows) + 2`` times per commit wherever the tail
   stands.  Re-coding the whole tail per commit reads ~16x at these sizes.

As in ``bench_compression``, CI page caches make real reads free and real
appends cheap, so the storage device is modelled explicitly: every gather
charges ``read_latency_s + bytes / sequential_read_bw`` of :data:`DEVICE` as
``time.sleep`` (GIL-releasing, like a blocking ``read(2)``).  Scan cost is
then deterministic — dominated by the modelled device, not by CI jitter — and
the delta/full ratio reflects the rows actually streamed.

Writes ``BENCH_updates.json`` (uploaded by CI as an artifact): scan walls and
the mixed/static ratio, delta vs full-refit walls and the speedup, the
bit-identity result for the snapshot scan under appends, and the commit
walls and codec-call counts at both ends of a v2 tail.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import ThrottledMatrix, assert_metrics_clean, emit, slow_device
from repro.api.chunks import open_chunk_stream, plan_chunks
from repro.api.sharded import ShardAppender, write_sharded_dataset
from repro.data.codecs import CODEC_REGISTRY, ZlibCodec, register_codec
from repro.ml import GaussianNaiveBayes

ROWS = 6000
COLS = 32
SHARD_ROWS = 750      # 8 shards
CHUNK_ROWS = 250
APPEND_BATCHES = 6
APPEND_ROWS = 250     # per batch
DELTA_ROWS = 1000
SCAN_ROUNDS = 21      # static/mixed pairs; the median pair by ratio is read
# Slow enough that the modelled stalls dominate the scan wall (~5 ms per
# chunk): appender CPU/fsync jitter on the other thread then costs the
# pinned reader well under the 10% bar: 1 ms per gather, ~15 MB/s (cold
# object store).
DEVICE = slow_device(latency_s=0.001, bandwidth=15e6)
# The v2 commit-cost section: block-aligned batches, so the commits at both
# ends of the tail code the same four blocks and differ only in what the
# tail already holds (1 batch vs 31 of a 32-batch shard).  Rows are wide
# enough (2 KB) that the per-file label segment — one segment by format,
# re-coded per commit — stays a sliver of the batch at either end.
COMMIT_COLS = 256
COMMIT_ROWS = 256
COMMIT_BLOCK_ROWS = 64
COMMIT_SHARD_ROWS = 32 * COMMIT_ROWS
COMMIT_REPEATS = 5


def _make(rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, COLS))
    y = (X @ np.linspace(-1.0, 1.0, COLS) > 0).astype(np.int64)
    return X, y


def _scan(matrix, labels) -> tuple[float, np.ndarray]:
    """One full pass over ``matrix``; returns (wall_s, concatenated rows)."""
    parts = []
    began = time.perf_counter()
    stream = open_chunk_stream(
        matrix, labels=labels, chunk_rows=CHUNK_ROWS, io_workers=2
    )
    with stream:
        for chunk in stream:
            parts.append(np.array(chunk.X))
            chunk.release()
    wall = time.perf_counter() - began
    return wall, np.concatenate(parts)


class CountingZlib(ZlibCodec):
    """Real zlib that counts its ``encode`` calls."""

    name = "zlib-counted"

    def __init__(self) -> None:
        super().__init__()
        # Encodes run on encode workers; the lock keeps the count exact.
        self._lock = threading.Lock()
        self.encodes = 0

    def encode(self, data):
        with self._lock:
            self.encodes += 1
        return super().encode(data)


def _commit_costs(root: Path) -> dict:
    """zlib commit wall + codec calls with the v2 tail nearly empty / full."""
    codec = register_codec(CountingZlib())
    rng = np.random.default_rng(11)
    # One decimal of precision: compressible the way real feature columns
    # are, so the commit is codec-bound like the e2e ``append_tail`` loop.
    X = np.round(rng.normal(size=(COMMIT_SHARD_ROWS + COMMIT_ROWS, COMMIT_COLS)), 1)
    y = (X[:, 0] > 0).astype(np.int64)
    walls = {"empty": [], "full": []}
    calls = {"empty": set(), "full": set()}

    def commit(appender, key, lo):
        before = codec.encodes
        began = time.perf_counter()
        appender.append(X[lo : lo + COMMIT_ROWS], y[lo : lo + COMMIT_ROWS])
        walls[key].append(time.perf_counter() - began)
        calls[key].add(codec.encodes - before)

    try:
        for repeat in range(COMMIT_REPEATS):
            directory = root / f"commit-{repeat}"
            write_sharded_dataset(
                directory, X[:COMMIT_ROWS], y[:COMMIT_ROWS], shard_rows=COMMIT_ROWS,
                codec=codec.name, block_rows=COMMIT_BLOCK_ROWS,
            )
            appender = ShardAppender(directory, shard_rows=COMMIT_SHARD_ROWS)
            lo = COMMIT_ROWS
            appender.append(X[lo : lo + COMMIT_ROWS], y[lo : lo + COMMIT_ROWS])
            commit(appender, "empty", lo + COMMIT_ROWS)          # tail: 1 batch
            lo, hi = lo + 2 * COMMIT_ROWS, COMMIT_SHARD_ROWS
            appender.append(X[lo:hi], y[lo:hi])
            commit(appender, "full", hi)               # tail: shard - 1 batch
            assert appender.manifest.tail_shard is None  # … which sealed it
    finally:
        del CODEC_REGISTRY[codec.name]
    # The counts are exact, not sampled: every repeat must agree.
    assert len(calls["empty"]) == 1 and len(calls["full"]) == 1, calls
    empty_s = statistics.median(walls["empty"])
    full_s = statistics.median(walls["full"])
    return {
        "cols": COMMIT_COLS,
        "commit_rows": COMMIT_ROWS,
        "block_rows": COMMIT_BLOCK_ROWS,
        "shard_rows": COMMIT_SHARD_ROWS,
        "repeats": COMMIT_REPEATS,
        "empty_tail_commit_s": empty_s,
        "full_tail_commit_s": full_s,
        "full_over_empty": full_s / empty_s if empty_s > 0 else float("inf"),
        "encodes_per_commit_empty_tail": calls["empty"].pop(),
        "encodes_per_commit_full_tail": calls["full"].pop(),
        "encodes_per_commit_bound": math.ceil(COMMIT_ROWS / COMMIT_BLOCK_ROWS) + 2,
    }


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The same dataset in a static and an appendable-under-load copy."""
    root = tmp_path_factory.mktemp("bench_updates")
    X, y = _make(ROWS, seed=7)
    static_dir = root / "static"
    mixed_dir = root / "mixed"
    write_sharded_dataset(static_dir, X, y, shard_rows=SHARD_ROWS)
    write_sharded_dataset(mixed_dir, X, y, shard_rows=SHARD_ROWS)
    return static_dir, mixed_dir, X, y


@pytest.mark.benchmark(group="updates")
def test_mixed_append_scan_and_delta_training(benchmark, workload):
    static_dir, mixed_dir, X, y = workload

    # -- 1. static baseline: the scan on a quiescent dataset -----------------
    def static_scan():
        with ThrottledMatrix(static_dir, DEVICE) as matrix:
            return _scan(matrix, matrix.lazy_labels)

    # -- 2. mixed: the same scan while a writer commits batches --------------
    def mixed_scan():
        # A fresh copy per round, so every mixed scan covers the same rows.
        shutil.rmtree(mixed_dir)
        write_sharded_dataset(mixed_dir, X, y, shard_rows=SHARD_ROWS)
        with ThrottledMatrix(mixed_dir, DEVICE) as matrix:  # pins its generation
            appender = ShardAppender(mixed_dir, shard_rows=SHARD_ROWS)
            stop = threading.Event()
            offset = [ROWS]

            def writer():
                for _ in range(APPEND_BATCHES):
                    if stop.is_set():
                        return
                    Xb, yb = _make(APPEND_ROWS, seed=offset[0])
                    appender.append(Xb, yb)
                    offset[0] += APPEND_ROWS
            thread = threading.Thread(target=writer, name="bench-appender")
            thread.start()
            try:
                return _scan(matrix, matrix.lazy_labels)
            finally:
                stop.set()
                thread.join(timeout=60.0)

    def sweep():
        # Back-to-back static/mixed pairs, which side runs first alternating,
        # as in bench_faults: a shared 2-vCPU guest slows in spells, so one
        # read of best-of-3 blocks could land a spell on one side only.
        pairs = []
        for round_index in range(SCAN_ROUNDS):
            walls = {}
            for mixed in (False, True) if round_index % 2 else (True, False):
                walls[mixed], rows = mixed_scan() if mixed else static_scan()
                # The pinned reader saw exactly its generation's rows,
                # bit-identically, despite the appends landing mid-scan.
                assert np.array_equal(rows, X)
            pairs.append((walls[False], walls[True]))
        return pairs

    pairs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The median pair by ratio: its two scans ran back to back.
    static_s, mixed_s = sorted(pairs, key=lambda pair: pair[1] / pair[0])[SCAN_ROUNDS // 2]

    ratio = mixed_s / static_s if static_s > 0 else float("inf")
    scan = {
        "static_s": static_s,
        "mixed_s": mixed_s,
        "mixed_over_static": ratio,
        "rounds": SCAN_ROUNDS,
        "round_ratios": [mixed / static for static, mixed in pairs],
        "static_rows_per_s": ROWS / static_s if static_s > 0 else 0.0,
        "mixed_rows_per_s": ROWS / mixed_s if mixed_s > 0 else 0.0,
        "append_batches": APPEND_BATCHES,
        "append_rows": APPEND_BATCHES * APPEND_ROWS,
        "snapshot_bit_identical": True,  # asserted for every round above
    }
    # Acceptance bar: appends may cost the pinned scan at most 10%.
    assert ratio <= 1.10, scan

    # -- 3. delta partial_fit vs full refit ----------------------------------
    # The mixed directory has grown; train the delta the way m3 traind does
    # (a row_range plan over the new generation) against a from-scratch
    # refit over everything.
    delta_dir = static_dir  # reuse the quiescent copy for determinism
    Xd, yd = _make(DELTA_ROWS, seed=1234)
    ShardAppender(delta_dir, shard_rows=SHARD_ROWS).append(Xd, yd)
    classes = np.unique(y)
    total = ROWS + DELTA_ROWS

    def stream_fit(model, row_range):
        with ThrottledMatrix(delta_dir, DEVICE) as matrix:
            plan = plan_chunks(matrix, chunk_rows=CHUNK_ROWS, row_range=row_range)
            stream = open_chunk_stream(
                matrix, labels=matrix.lazy_labels, plan=plan, io_workers=2
            )
            began = time.perf_counter()
            with stream:
                for chunk in stream:
                    try:
                        model.partial_fit(chunk.X, chunk.y, classes=classes)
                    finally:
                        chunk.release()
            return time.perf_counter() - began

    # Warm the delta model to the seed rows off-clock (the served model has
    # already seen them), then time only the catch-up.
    delta_model = GaussianNaiveBayes().partial_fit(X, y, classes=classes)
    delta_s = stream_fit(delta_model, (ROWS, total))
    full_s = stream_fit(GaussianNaiveBayes(), (0, total))
    speedup = full_s / delta_s if delta_s > 0 else float("inf")
    train = {
        "delta_s": delta_s,
        "full_s": full_s,
        "delta_speedup": speedup,
        "delta_rows": DELTA_ROWS,
        "total_rows": total,
    }
    # Acceptance bar: catching up on the delta beats refitting >= 3x.
    assert speedup >= 3.0, train

    # -- 4. v2 commit cost at both ends of the tail --------------------------
    append = _commit_costs(static_dir.parent)
    # Acceptance bars: the commit follows the batch, not the tail.
    assert append["full_over_empty"] <= 2.0, append
    assert max(
        append["encodes_per_commit_empty_tail"],
        append["encodes_per_commit_full_tail"],
    ) <= append["encodes_per_commit_bound"], append

    payload = {
        "workload": (
            f"{ROWS} x {COLS} shard:// dataset, {APPEND_BATCHES} x "
            f"{APPEND_ROWS}-row appends under a 2-reader scan, then a "
            f"{DELTA_ROWS}-row delta catch-up vs full refit "
            f"({DEVICE.name})"
        ),
        "rows": ROWS,
        "chunk_rows": CHUNK_ROWS,
        "scan": scan,
        "train": train,
        "append": append,
    }
    assert_metrics_clean(payload)
    Path("BENCH_updates.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "Appendable datasets (mixed append/scan + delta training)",
        f"scan: static {static_s * 1e3:.0f}ms, mixed {mixed_s * 1e3:.0f}ms "
        f"({ratio:.3f}x, <= 1.10 required)\n"
        f"train: delta {delta_s * 1e3:.0f}ms vs full {full_s * 1e3:.0f}ms "
        f"({speedup:.1f}x, >= 3.0 required)\n"
        f"append: zlib commit {append['empty_tail_commit_s'] * 1e3:.1f}ms into a "
        f"1-batch tail, {append['full_tail_commit_s'] * 1e3:.1f}ms into a full one "
        f"({append['full_over_empty']:.2f}x, <= 2.0 required; "
        f"{append['encodes_per_commit_full_tail']} codec calls, "
        f"<= {append['encodes_per_commit_bound']} required)",
    )
