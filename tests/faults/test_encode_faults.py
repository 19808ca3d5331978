"""The ``encode.block`` site: a codec failure on an encode worker.

Blocks are coded on :func:`repro.data.formats_v2.encode_blocks` workers, so a
failed block must surface from the writer, leave no encode thread behind and
— for an append — leave every byte of the dataset as it was, with the next
append recovering to the bytes a fault-free run writes.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.convert import convert_dataset
from repro.api.sharded import ShardAppender, manifest_generation, write_sharded_dataset
from repro.data import formats_v2
from repro.fanout import COMPUTE_THREAD_PREFIX
from repro.faults import FaultPlan, InjectedFault, set_fault_plan

BLOCK = 8
BASE = 16
BATCH = 3 * BLOCK + 3           # one commit = three full blocks + a short one


def _make(rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, 4)), rng.integers(0, 3, rows).astype(np.int64)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _encode_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith(COMPUTE_THREAD_PREFIX)]


class _FaultOnBlock(FaultPlan):
    """Fires ``encode.block`` once, in the encode of the block starting at ``first``.

    The block is told apart by its rows, not by call order, which two
    workers make racy; the site still fires inside the codec, on whichever
    thread codes that block.
    """

    def __init__(self, monkeypatch, first):
        super().__init__([])
        self.fired = 0
        self._armed = threading.local()
        encode = formats_v2.encode_block

        def spy(rows, *args):
            self._armed.on = bool(np.array_equal(rows[0], first))
            try:
                return encode(rows, *args)
            finally:
                self._armed.on = False

        monkeypatch.setattr(formats_v2, "encode_block", spy)

    def fire(self, site, detail=""):
        if site == "encode.block" and getattr(self._armed, "on", False):
            self.fired += 1
            raise InjectedFault(site, self.fired, detail)


@pytest.fixture()
def two_workers(monkeypatch):
    monkeypatch.setattr(formats_v2, "available_cpus", lambda: 2)


def _raises_under(plan, call):
    set_fault_plan(plan)
    try:
        with pytest.raises(InjectedFault, match="encode.block"):
            call()
    finally:
        set_fault_plan(None)
    assert plan.fired == 1
    assert _encode_threads() == []


def test_failed_block_leaves_the_dataset_as_it_was(tmp_path, monkeypatch, two_workers):
    X, y = _make(BASE + BATCH)
    batch = X[BASE:], y[BASE:]
    faulted, reference = tmp_path / "faulted", tmp_path / "reference"
    for directory in (faulted, reference):
        write_sharded_dataset(directory, X[:BASE], y[:BASE], shard_rows=BASE,
                              codec="zlib", block_rows=BLOCK)
    ShardAppender(reference, shard_rows=4 * BASE).append(*batch)
    appender = ShardAppender(faulted, shard_rows=4 * BASE)
    before = _files(faulted)

    # The 2nd of the commit's 4 blocks fails on its worker.
    _raises_under(_FaultOnBlock(monkeypatch, batch[0][BLOCK]),
                  lambda: appender.append(*batch))
    assert manifest_generation(faulted) == 0
    assert _files(faulted) == before

    # The same appender recovers and writes what a fault-free run wrote.
    assert appender.append(*batch).generation == 1
    assert _files(faulted) == _files(reference)


@pytest.mark.parametrize("writer", ["create", "convert"])
def test_failed_block_raises_from_every_writer(tmp_path, monkeypatch, two_workers, writer):
    X, y = _make(4 * BLOCK)
    source = tmp_path / "raw"
    write_sharded_dataset(source, X, y, shard_rows=4 * BLOCK)
    plan = _FaultOnBlock(monkeypatch, X[BLOCK])
    if writer == "create":
        call = lambda: write_sharded_dataset(  # noqa: E731
            tmp_path / "out", X, y, shard_rows=4 * BLOCK, codec="zlib", block_rows=BLOCK)
    else:
        call = lambda: convert_dataset(  # noqa: E731
            source, tmp_path / "out", codec="zlib", block_rows=BLOCK)
    _raises_under(plan, call)
