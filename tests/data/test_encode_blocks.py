"""One ordered, block-parallel encode under every v2 writer.

:func:`repro.data.formats_v2.encode_blocks` codes the blocks of a create, a
convert or an append commit on one worker per CPU (a create of several
shards writes one shard per worker instead, each coding its blocks inline).
What it promises is that the parallelism is invisible: at any worker count
every file is the serial loop's bytes, at most ``workers + 1`` blocks are in
flight, and a lone block is coded inline.  The count is forced by patching
``formats_v2.available_cpus`` and ``sharded.available_cpus`` — test seams,
not settings.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro import fanout
from repro.api import convert, sharded
from repro.api.convert import convert_dataset
from repro.api.sharded import ShardAppender, write_sharded_dataset
from repro.data import formats_v2
from repro.data.formats_v2 import BlockedMatrixWriter, write_blocked_matrix

WORKERS = (1, 2, 4)
COLS, BLOCK, SHARD = 5, 16, 128
ROWS = 300                          # create / convert: 3 shards, short blocks
APPENDS, APPEND_ROWS = 64, 37       # 2-3 blocks per commit
APPEND_SHARD = 512                  # the appended tail seals four times
GEOMETRIES = [
    (codec, np.dtype(storage))
    for codec in ("zlib", "none")
    for storage in (np.float64, np.float32)
]


def _data(rows, seed=0):
    rng = np.random.default_rng(seed)
    # One decimal: compressible, as real feature columns are.
    return np.round(rng.normal(size=(rows, COLS)), 1), rng.integers(0, 3, rows)


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _write_everything(root, geometry):
    """Create, convert and a 64-append run through the seal, under ``root``."""
    codec, storage = geometry
    v2 = dict(codec=codec, block_rows=BLOCK, storage_dtype=storage)
    X, y = _data(SHARD + APPENDS * APPEND_ROWS)
    write_sharded_dataset(root / "create", X[:ROWS], y[:ROWS], shard_rows=SHARD, **v2)
    write_sharded_dataset(root / "raw", X[:ROWS], y[:ROWS], shard_rows=SHARD)
    # Misaligned copy bands (CONVERT_CHUNK_ROWS is 50 here): appends straddle
    # block boundaries.
    convert_dataset(root / "raw", root / "convert", shard_rows=SHARD, **v2)
    write_sharded_dataset(root / "append", X[:SHARD], y[:SHARD], shard_rows=SHARD, **v2)
    appender = ShardAppender(root / "append", shard_rows=APPEND_SHARD)
    for index in range(APPENDS):
        lo = SHARD + index * APPEND_ROWS
        appender.append(X[lo:lo + APPEND_ROWS], y[lo:lo + APPEND_ROWS])
    assert sum(shard.sealed for shard in appender.manifest.shards) == 5
    return {name: _digests(root / name) for name in ("create", "convert", "append")}


@pytest.mark.parametrize(
    "geometry", GEOMETRIES, ids=lambda g: f"{g[0]}-{g[1].name}"
)
def test_every_writer_is_byte_identical_at_any_worker_count(tmp_path, monkeypatch, geometry):
    monkeypatch.setattr(convert, "CONVERT_CHUNK_ROWS", 50)
    digests = {}
    for workers in WORKERS:
        monkeypatch.setattr(formats_v2, "available_cpus", lambda: workers)
        monkeypatch.setattr(sharded, "available_cpus", lambda: workers)
        digests[workers] = _write_everything(tmp_path / f"workers-{workers}", geometry)
    serial = digests[1]
    assert all(serial[name] for name in serial)
    for workers in WORKERS[1:]:
        assert digests[workers] == serial, f"{workers} workers wrote other bytes"


def test_writer_keeps_at_most_workers_plus_one_blocks_in_flight(tmp_path, monkeypatch):
    workers = 2
    monkeypatch.setattr(formats_v2, "available_cpus", lambda: workers)
    lock = threading.Lock()
    started, written, peak, threads = [0], [0], [0], []
    encode, put = formats_v2.encode_block, BlockedMatrixWriter._put_block

    def spy(rows, *args):
        with lock:
            started[0] += 1
            peak[0] = max(peak[0], started[0] - written[0])
            threads.append(threading.current_thread().name)
        return encode(rows, *args)

    def counted_put(self, coded):
        put(self, coded)
        time.sleep(0.002)   # a slow disk: only the bound holds the encoders back
        with lock:
            written[0] += 1

    monkeypatch.setattr(formats_v2, "encode_block", spy)
    monkeypatch.setattr(BlockedMatrixWriter, "_put_block", counted_put)
    X, y = _data(20 * BLOCK + 3)
    write_blocked_matrix(tmp_path / "m.m3b", X, y, block_rows=BLOCK)
    assert started[0] == written[0] == 21
    assert 1 <= peak[0] <= workers + 1
    # The 20 full blocks were coded on encode workers; finalize codes the
    # 3-row short block inline.
    on_workers = [name for name in threads if name.startswith(fanout.COMPUTE_THREAD_PREFIX)]
    assert len(on_workers) == 20
    assert threads[-1] == threading.current_thread().name


def test_one_block_commit_starts_no_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(formats_v2, "available_cpus", lambda: 4)
    X, y = _data(SHARD + 3 * BLOCK)
    directory = tmp_path / "ds"
    write_sharded_dataset(directory, X[:SHARD], y[:SHARD], shard_rows=SHARD,
                          codec="zlib", block_rows=BLOCK)
    appender = ShardAppender(directory, shard_rows=APPEND_SHARD)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block commit must not create a pool")

    monkeypatch.setattr(fanout, "ThreadPoolExecutor", no_pool)
    # A short block alone, a short block grown, then the commit that fills
    # it exactly: each codes one block (plus the labels).
    for lo, hi in ((0, 5), (5, 7), (7, BLOCK)):
        appender.append(X[SHARD + lo:SHARD + hi], y[SHARD + lo:SHARD + hi])
    assert appender.rows == SHARD + BLOCK
    write_blocked_matrix(tmp_path / "one.m3b", X[:BLOCK], y[:BLOCK], block_rows=BLOCK)
    with pytest.raises(AssertionError, match="one-block"):   # the guard itself works
        appender.append(X[SHARD + BLOCK:SHARD + 2 * BLOCK + 1],
                        y[SHARD + BLOCK:SHARD + 2 * BLOCK + 1])
