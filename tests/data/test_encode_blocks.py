"""One ordered, block-parallel encode under every v2 writer.

:func:`repro.data.formats_v2.encode_blocks` codes the blocks of a create, a
convert or an append commit on one worker per CPU; shards are written one
after another, so it is the one write fan-out.  What it promises is that the
parallelism is invisible: at any worker count every file is the serial
loop's bytes, at most ``workers + 1`` blocks are in flight, and a lone block
is coded inline.  The count is forced by patching
``formats_v2.available_cpus`` — a test seam, not a setting.  A create's files
are also pinned by digest, so a change of who codes what cannot move a byte.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro import Session, fanout
from repro.api import convert
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
        digests[workers] = _write_everything(tmp_path / f"workers-{workers}", geometry)
    serial = digests[1]
    assert all(serial[name] for name in serial)
    for workers in WORKERS[1:]:
        assert digests[workers] == serial, f"{workers} workers wrote other bytes"


#: SHA-256 over every file (name, then bytes, in name order) that
#: ``write_sharded_dataset`` (16-row blocks) and ``Session.create`` on
#: ``shard://`` (default blocks) write for :func:`_pinned_data`, as the
#: writers produced them when a create of several shards still wrote one
#: shard per worker.
PINNED = {
    "raw-labelled-one-shard": ("df9b331f3a77b1ca945126ab4f208ef38493d36e968d359bafa2818c25dbf631",
        "66bc6163524ca22f9931b7673886d16eae552d3d542550a2cdb1ba94dee96c7e"),
    "raw-labelled-eight-shards": ("096561453bc6d7902ec4932cae4f821d81e81c87865f3640ce63c39d3f85c290",
        "afbe4a713e26546a32ae5334770e533cd1822ea65c0a86cb3c030e9f91801ea8"),
    "raw-labelled-empty": ("181db1a7042e15dd79eb042907e19e63e0c74848bc6830d13300eef36f3249f4",
        "a1d6003637a50a38a065a883a8a07b39c5cbea232de24ec6eb0482a38fae5286"),
    "raw-unlabelled-one-shard": ("17d51ddef38140bae09d7676598271259cbd8f34ffd7e8b1f23b5f3c55660cda",
        "4b43fe363d390c8c216cea3f84959b46ce9781fd997d6e128e5b95991d05ba06"),
    "raw-unlabelled-eight-shards": ("f215c0a65fa2583b46bb6dadb8dd6ff4d59edfde0281b7579cc73529b0ccf744",
        "132e21257cd2309720903657a834092f3f57f9feed4adf137c2484943b5aa356"),
    "raw-unlabelled-empty": ("2cde69026bbf0ac10064c1c468b007bc07d7230b04f3010b48ec01e4d3452e0e",
        "3c3b60b129b8fd84e390feaed8239aa2b00c351eab32d26ea1e2187288349d02"),
    "zlib-labelled-one-shard": ("b4190a038b442f85d22d81d798908603400671e2f95ae01c3475fa058aba7be8",
        "adcbe857d6cae5274a7115e5ca35ef50c659cd45079897e9b0c519cd4fcfa8fe"),
    "zlib-labelled-eight-shards": ("312606633af93cbf2ad5b288c64d8f43b433f524e775c9f727e37d99b069c0e1",
        "ed1c6d2b4df281618997abf9da4e4fd286c27f8463bae33858ae625cb365a22d"),
    "zlib-labelled-empty": ("941a4f3b7f8bb8f2389d0585dba036543de52391b4e04654231754037b806af6",
        "a473aa46a6d7896aefc9087d62cfe0c86e8deaef01b5c259fd3284e23a6b0d01"),
    "zlib-unlabelled-one-shard": ("f5f4f2073ab0e6fcfe5e52df75500420d18379b7da00d0c04102e8d509eb9164",
        "7475952ef0d3419ce02bb35da64b87c38242a6d1679caf0de024e3dc5632e969"),
    "zlib-unlabelled-eight-shards": ("695e4a1eea8bdbd13f608cb154c8564f67874fb9b07281a41e154d6e0192989b",
        "4178fe59417c78242dc68f59af95b0123aea6c3019c5d6cb6cc96df9f5dfc984"),
    "zlib-unlabelled-empty": ("1b4fa4a346f13d9b302ae747a207d7ec03837a18873a58a63d174d3e481d2ecd",
        "0097a34b0d47c8192318582b44c80678f11e95ad86c9af241562df49c8dc0069"),
}


def _pinned_data(rows, labelled):
    X = ((np.arange(rows * 6) * 37 % 101) / 8.0).reshape(rows, 6)
    return X, (np.arange(rows) % 3) if labelled else None


def _tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_create_writes_the_pinned_bytes(tmp_path, monkeypatch, case):
    codec, labelled, shape = case.split("-", 2)
    rows, shard_rows, shards = {"one-shard": (200, 200, 1), "eight-shards": (200, 25, 8),
                                "empty": (0, 25, 1)}[shape]
    X, y = _pinned_data(rows, labelled == "labelled")
    codec = None if codec == "raw" else codec
    monkeypatch.setattr(formats_v2, "available_cpus", lambda: 2)
    manifest = write_sharded_dataset(tmp_path / "w", X, y, shard_rows=shard_rows,
                                     codec=codec, block_rows=16)
    assert len(manifest.shards) == shards
    with Session() as session:
        session.create(f"shard://{tmp_path / 'c'}", X, y, shard_rows=shard_rows, codec=codec)
    assert (_tree_digest(tmp_path / "w"), _tree_digest(tmp_path / "c")) == PINNED[case]


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
