"""The trainer under read faults: a transient read is retried and counted,
a read that fails for good publishes nothing and keeps the cursor, and the
model that comes out is the fault-free one, bit for bit.

The datasets are zlib-coded, unlabelled and labelled.  A labelled poll's
first positioned reads decode the new tail's label segment, inside the
refresh and under that read's own retry budget; the trainer counts those
retries as it counts its delta reads'.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import Session
from repro.api.chunks import DEFAULT_CHUNK_BYTES
from repro.api.sharded import (
    ShardAppender,
    ShardedMatrix,
    read_manifest,
    write_sharded_dataset,
)
from repro.data.formats_v2 import BlockedMatrixReader, ChecksumError
from repro.faults import RetriesExhausted, set_fault_plan
from repro.ml import GaussianNaiveBayes, MiniBatchKMeans
from repro.serve import Trainer

BASE, DELTA, COLS = 300, 100, 8


def _fitted(model):
    return {key: value for key, value in vars(model).items() if isinstance(value, np.ndarray)}


def _assert_same_model(left, right):
    a, b = _fitted(left), _fitted(right)
    assert a.keys() == b.keys() and a
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class _Live:
    """One zlib dataset, appended to by hand, and a trainer caught up to it."""

    def __init__(self, directory, X, y, session):
        write_sharded_dataset(directory, X[:BASE], None if y is None else y[:BASE],
                              shard_rows=1024, codec="zlib", block_rows=64)
        self.directory = directory
        self.X, self.y = X, y
        self.appender = ShardAppender(directory, shard_rows=1024)
        model = MiniBatchKMeans(n_clusters=3, seed=0) if y is None else GaussianNaiveBayes()
        self.trainer = Trainer(f"shard://{directory}", model, session=session)
        assert self.trainer.poll_once().rows == BASE

    def append(self, lo, hi):
        self.appender.append(self.X[lo:hi], None if self.y is None else self.y[lo:hi])

    def published(self):
        return self.trainer.registry.resolve("default")


@pytest.fixture(params=["unlabelled", "labelled"])
def live(tmp_path, request):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(BASE + DELTA, COLS))
    y = rng.integers(0, 3, BASE + DELTA) if request.param == "labelled" else None
    with Session() as session:
        runs = {name: _Live(tmp_path / name, X, y, session) for name in ("clean", "faulty")}
        for run in runs.values():
            run.append(BASE, BASE + DELTA)
        yield runs
        for run in runs.values():
            run.trainer.close()


def test_transient_reads_are_retried_counted_and_change_no_bit(live):
    clean = live["clean"].trainer.poll_once()
    set_fault_plan("read.pread:n=2")
    try:
        update = live["faulty"].trainer.poll_once()
    finally:
        set_fault_plan(None)
    stats = live["faulty"].trainer.stats
    assert (stats.retries, stats.faults_injected) == (2, 2)
    assert live["clean"].trainer.stats.retries == 0
    assert (update.rows, update.chunks) == (clean.rows, clean.chunks) == (DELTA, 1)
    _assert_same_model(live["faulty"].published().model, live["clean"].published().model)


def _failed_poll_changes_nothing(run, error):
    trainer = run.trainer
    before = (trainer.trained_rows, trainer.trained_generation, run.published().version)
    threads = set(threading.enumerate())
    with pytest.raises(error):
        trainer.poll_once()
    assert (trainer.trained_rows, trainer.trained_generation, run.published().version) == before
    assert set(threading.enumerate()) == threads
    assert trainer.stats.updates == 1


def test_an_exhausted_read_budget_publishes_nothing_and_the_next_poll_retrains(live):
    set_fault_plan("read.pread:n=4")  # every attempt of the first read
    try:
        _failed_poll_changes_nothing(live["faulty"], RetriesExhausted)
    finally:
        set_fault_plan(None)
    assert live["faulty"].trainer.stats.retries == 3
    update = live["faulty"].trainer.poll_once()
    assert update.rows == DELTA and update.version.version == 2
    live["clean"].trainer.poll_once()
    _assert_same_model(live["faulty"].published().model, live["clean"].published().model)


def test_a_corrupt_block_publishes_nothing_and_the_next_poll_retrains(live):
    run = live["faulty"]
    # The append wrote a new tail shard, rows [300, 400) in two blocks.
    tail = run.directory / read_manifest(run.directory).shards[-1].filename
    with BlockedMatrixReader(tail) as reader:
        offset = reader.header.blocks[1].segments[0][0]  # rows [364, 400)
    pristine = tail.read_bytes()
    corrupt = bytearray(pristine)
    corrupt[offset + 8] ^= 0xFF
    tail.write_bytes(bytes(corrupt))
    _failed_poll_changes_nothing(run, ChecksumError)
    assert run.trainer.stats.retries == 0  # corruption re-reads the same bytes
    tail.write_bytes(pristine)
    update = run.trainer.poll_once()
    assert update.rows == DELTA and update.version.version == 2
    live["clean"].trainer.poll_once()
    _assert_same_model(run.published().model, live["clean"].published().model)


def test_a_failed_later_piece_keeps_the_rows_already_trained(tmp_path, monkeypatch):
    # 256 columns: the ramp's first three chunks (512 + 1,024 + 2,048 rows,
    # 7 MiB) are one read piece, the rest of the catch-up a second one.
    cols = 256
    X = np.random.default_rng(5).normal(size=(4500, cols))
    assert X[:3584].nbytes <= DEFAULT_CHUNK_BYTES < X.nbytes
    write_sharded_dataset(tmp_path / "ds", X, None, shard_rows=8192, codec="zlib")
    real = ShardedMatrix.fetch_compressed

    def second_piece_fails(matrix, start, stop):
        if start >= 3584:
            raise OSError("disk on fire")
        return real(matrix, start, stop)

    monkeypatch.setattr(ShardedMatrix, "fetch_compressed", second_piece_fails)
    with Trainer(f"shard://{tmp_path / 'ds'}", MiniBatchKMeans(n_clusters=3, seed=0)) as trainer:
        with pytest.raises(RetriesExhausted):
            trainer.poll_once()
        # The first piece was trained: the cursor says so, so those rows are
        # not trained twice; nothing was published.
        assert trainer.trained_rows == 3584
        assert trainer.trained_generation is None
        assert trainer.registry.names() == []
        monkeypatch.setattr(ShardedMatrix, "fetch_compressed", real)
        update = trainer.poll_once()
        assert update.rows == 4500 - 3584 and update.version.version == 1
        assert trainer.trained_rows == 4500
