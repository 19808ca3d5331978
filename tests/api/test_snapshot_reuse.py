"""Snapshots share sealed state: a refresh re-reads only what an append changed.

``Session.refresh(prev)`` (and :meth:`ShardedMatrix.refresh` under it) opens
the latest generation from a snapshot, open or closed.  A sealed shard that
both generations list with the same manifest entry, and whose file still
shows the header the old snapshot checked, keeps the old snapshot's path,
header and decoded labels; every other shard is opened and checked as a
fresh open would.  These tests pin both halves, on raw (mapped) and zlib
(decoded) datasets:

* a refreshed snapshot reads bit for bit as a fresh open, and the old one
  still reads its own generation;
* a dataset re-created in place behind the session, with every manifest
  entry unchanged, is read fresh, and a sealed shard damaged after the old
  snapshot was opened is refused with the error a fresh open raises;
* a refresh after one append reads the headers and labels of the changed
  shards only, and a trainer's poll does the same;
* the label arrays the snapshots share are read-only;
* a tail replaced while a snapshot opens it, and readers refreshing one
  session's snapshots beside an appender, each read a committed prefix, bit
  for bit.
"""

import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api import sharded
from repro.api.sharded import (
    MANIFEST_NAME,
    ShardAppender,
    open_sharded_matrix,
    write_sharded_dataset,
)
from repro.data import formats_v2
from repro.data.formats_v2 import BlockedMatrixReader
from repro.ml import GaussianNaiveBayes
from repro.serve import Trainer

CODECS = [None, "zlib"]


def _make(rows, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)), rng.integers(0, 3, rows).astype(np.int64)


def _contents(dataset):
    """A dataset's generation, rows and labels, as bytes."""
    return (
        dataset.generation,
        np.array(dataset.matrix[:], copy=True).tobytes(),
        np.asarray(dataset.labels).tobytes(),
    )


def _fresh(directory):
    with Session() as session, session.open(f"shard://{directory}") as dataset:
        return _contents(dataset)


def _replace(path: Path, data: bytes) -> None:
    """Give ``path`` new bytes in a new file, as the appender does."""
    tmp = path.with_name(path.name + ".new")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class _Reads:
    """Counts every header and label read of a shard file."""

    def __init__(self, monkeypatch):
        self.headers = 0
        self.labels = 0
        read_header = formats_v2.read_blocked_header
        read_labels = BlockedMatrixReader.read_labels

        def header(path, fd=None):
            self.headers += 1
            return read_header(path, fd)

        def labels(reader):
            self.labels += 1
            return read_labels(reader)

        monkeypatch.setattr(formats_v2, "read_blocked_header", header)
        monkeypatch.setattr(sharded, "read_blocked_header", header)
        monkeypatch.setattr(BlockedMatrixReader, "read_labels", labels)


@pytest.mark.parametrize("codec", CODECS)
def test_refresh_reads_as_a_fresh_open_and_leaves_the_old_snapshot(tmp_path, codec):
    directory = tmp_path / "ds"
    X, y = _make(40)
    write_sharded_dataset(directory, X, y, shard_rows=8, codec=codec, block_rows=4)
    appender = ShardAppender(directory, shard_rows=8)
    appender.append(*_make(3, seed=1))
    with Session() as session:
        old = session.open(f"shard://{directory}")
        committed = _contents(old)
        # Extend the tail, seal it and start two more shards.
        appender.append(*_make(14, seed=2))
        new = session.refresh(old)
        assert new.generation == old.generation + 1
        assert _contents(new) == _fresh(directory)
        assert _contents(old) == committed
        # A second refresh, now from a snapshot that itself kept state.
        appender.append(*_make(5, seed=3))
        newer = session.refresh(new, close_previous=True)
        assert new.closed
        assert _contents(newer) == _fresh(directory)
        assert _contents(old) == committed
        old.close()
        newer.close()


@pytest.mark.parametrize("codec", CODECS)
def test_a_dataset_recreated_behind_the_session_is_read_fresh(
    tmp_path, monkeypatch, codec
):
    # Re-created in place: the same shard names, inodes and byte counts, so
    # every manifest entry matches; only the rows differ.
    directory = tmp_path / "ds"
    X, y = _make(40)
    write_sharded_dataset(directory, X, y, shard_rows=16, codec=codec, block_rows=4)
    manifest = (directory / MANIFEST_NAME).read_bytes()
    with Session() as session:
        old = session.open(f"shard://{directory}")
        write_sharded_dataset(directory, -X, y, shard_rows=16, codec=codec, block_rows=4)
        assert (directory / MANIFEST_NAME).read_bytes() == manifest
        reads = _Reads(monkeypatch)
        new = session.refresh(old, close_previous=True)
        assert reads.headers == 3  # every shard, none kept
        np.testing.assert_array_equal(np.asarray(new.matrix[:]), -X)
        np.testing.assert_array_equal(np.asarray(new.labels), y)
        new.close()


def _truncate(data: bytes) -> bytes:
    return data[:-7]


def _flip_prefix_crc(data: bytes) -> bytes:
    # Bytes 12..15 of the prefix hold the trailer's CRC.
    return data[:12] + bytes([data[12] ^ 0xFF]) + data[13:]


def _flip_trailer(data: bytes) -> bytes:
    # The JSON trailer sits at the end of the file.
    return data[:-3] + bytes([data[-3] ^ 0x01]) + data[-2:]


def _wreck_magic(data: bytes) -> bytes:
    return b"NOTBLOCK" + data[8:]


@pytest.mark.parametrize(
    "damage", [_truncate, _flip_prefix_crc, _flip_trailer, _wreck_magic],
    ids=lambda damage: damage.__name__.strip("_"),
)
@pytest.mark.parametrize("codec", CODECS)
def test_a_sealed_shard_damaged_after_open_is_refused_as_a_fresh_open_refuses(
    tmp_path, codec, damage
):
    directory = tmp_path / "ds"
    X, y = _make(40)
    write_sharded_dataset(directory, X, y, shard_rows=16, codec=codec, block_rows=4)
    with Session() as session:
        old = session.open(f"shard://{directory}")
        ShardAppender(directory, shard_rows=16).append(*_make(4, seed=1))
        shard = directory / "shard-00000.m3b"
        _replace(shard, damage(shard.read_bytes()))
        with pytest.raises(Exception) as fresh:
            open_sharded_matrix(directory)
        with pytest.raises(Exception) as refreshed:
            session.refresh(old, close_previous=True)
        assert type(refreshed.value) is type(fresh.value)
        assert isinstance(fresh.value, ValueError)
        assert not old.closed  # a refused refresh leaves the old snapshot
        assert old.shape == X.shape
        old.close()


@pytest.mark.parametrize("codec", CODECS)
def test_a_sealed_shard_that_changed_size_is_read_afresh(tmp_path, monkeypatch, codec):
    # Prefix and trailer intact, one byte more: the file is not the one the
    # old snapshot checked, so its header is read again (and still opens).
    directory = tmp_path / "ds"
    X, y = _make(40)
    write_sharded_dataset(directory, X, y, shard_rows=16, codec=codec, block_rows=4)
    with Session() as session:
        old = session.open(f"shard://{directory}")
        ShardAppender(directory, shard_rows=16).append(*_make(4, seed=1))
        shard = directory / "shard-00000.m3b"
        _replace(shard, shard.read_bytes() + b"\0")
        reads = _Reads(monkeypatch)
        new = session.refresh(old, close_previous=True)
        assert reads.headers == 2  # the grown shard and the new tail
        monkeypatch.undo()
        assert _contents(new) == _fresh(directory)
        new.close()


@pytest.mark.parametrize("how", ["refresh-open", "refresh-closed"])
@pytest.mark.parametrize("codec", CODECS)
def test_a_refresh_reads_only_the_shards_an_append_changed(
    tmp_path, monkeypatch, codec, how
):
    # 64 sealed 256-row shards and a 128-row tail; one more 128-row append
    # rewrites the tail and nothing else.  A refresh from the old snapshot,
    # open or closed, re-reads that tail alone.
    directory = tmp_path / "ds"
    write_sharded_dataset(directory, *_make(64 * 256), shard_rows=256, codec=codec)
    appender = ShardAppender(directory, shard_rows=256)
    appender.append(*_make(128, seed=1))
    with Session() as session:
        old = session.open(f"shard://{directory}")
        if how == "refresh-closed":
            old.close()
        appender.append(*_make(128, seed=2))
        reads = _Reads(monkeypatch)
        new = session.refresh(old, close_previous=True)
        assert 1 <= reads.headers <= 2
        assert reads.labels <= 2
        assert new.shape[0] == 64 * 256 + 256
        monkeypatch.undo()
        assert _contents(new) == _fresh(directory)
        new.close()


@pytest.mark.parametrize("codec", CODECS)
def test_a_plain_open_beside_a_held_snapshot_shares_nothing_with_it(
    tmp_path, monkeypatch, codec
):
    # Only a refresh reuses a snapshot's sealed state: a plain open of the
    # same spec, with the old snapshot still open, checks every shard itself
    # and reads the latest generation, and the old snapshot keeps its own.
    directory = tmp_path / "ds"
    write_sharded_dataset(directory, *_make(8 * 16), shard_rows=16, codec=codec)
    appender = ShardAppender(directory, shard_rows=16)
    appender.append(*_make(8, seed=1))
    with Session() as session:
        old = session.open(f"shard://{directory}")
        committed = _contents(old)
        appender.append(*_make(8, seed=2))
        reads = _Reads(monkeypatch)
        new = session.open(f"shard://{directory}")
        assert reads.headers == 9, reads.headers
        assert new.generation == old.generation + 1
        monkeypatch.undo()
        assert _contents(new) == _fresh(directory)
        assert _contents(old) == committed
        old.close()
        new.close()


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("codec", CODECS)
def test_a_trainer_poll_reads_only_changed_shards_and_holds_no_file_between_polls(
    tmp_path, monkeypatch, codec
):
    directory = tmp_path / "ds"
    X, y = _make(16 * 32)
    write_sharded_dataset(directory, X, y, shard_rows=32, codec=codec)
    before = _open_descriptors()
    trainer = Trainer(f"shard://{directory}", GaussianNaiveBayes())
    assert trainer.poll_once().rows == X.shape[0]
    appender = ShardAppender(directory, shard_rows=32)
    appender.append(*_make(20, seed=1))
    assert trainer.poll_once().rows == 20
    appender.append(*_make(20, seed=2))  # seals the tail, starts a shard
    reads = _Reads(monkeypatch)
    assert trainer.poll_once().rows == 20
    assert reads.headers == 2 and reads.labels <= 2
    monkeypatch.undo()
    # Between polls the trainer keeps its last snapshot closed: no file of
    # the dataset is held open, so an append's rename frees the old tail.
    assert _open_descriptors() == before
    trainer.close()
    assert _open_descriptors() == before


@pytest.mark.parametrize("codec", CODECS)
def test_labels_the_snapshots_share_are_read_only(tmp_path, codec):
    directory = tmp_path / "ds"
    X, y = _make(40)
    write_sharded_dataset(directory, X, y, shard_rows=16, codec=codec)
    with Session() as session, session.open(f"shard://{directory}") as dataset:
        labels = dataset.labels
        with pytest.raises(ValueError, match="read-only"):
            labels[0:4][0] = 7  # one shard's own array
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(labels)[0] = 7  # the stitched vector
        np.testing.assert_array_equal(np.asarray(labels), y)


class _OsOpenThen:
    """Stands in for ``os`` in :mod:`repro.data.formats_v2`: runs ``then``
    right after the first descriptor opened on a file called ``name``."""

    def __init__(self, name, then):
        self.name, self.then = name, then

    def __getattr__(self, attr):
        return getattr(os, attr)

    def open(self, path, *args):
        fd = os.open(path, *args)
        if Path(path).name == self.name:
            self.then()
        return fd


@pytest.mark.parametrize("when", ["after-header", "after-open"])
@pytest.mark.parametrize("codec", CODECS)
def test_a_tail_replaced_while_it_is_opened_reads_as_committed(
    tmp_path, monkeypatch, codec, when
):
    # An append replaces the tail while the open reads it: after its header
    # was read, or after the file was first opened.  Header and rows must
    # come from one file, or one file's label offset reads the other.
    directory = tmp_path / "ds"
    X, y = _make(48)
    write_sharded_dataset(directory, X[:40], y[:40], shard_rows=16, codec=codec, block_rows=4)
    appender = ShardAppender(directory, shard_rows=16)
    appender.append(X[40:44], y[40:44])
    pending = [lambda: appender.append(X[44:], y[44:])]

    def append_once(path):
        if Path(path).name == "shard-00003.m3b" and pending:
            pending.pop()()

    if when == "after-header":
        read_header = formats_v2.read_blocked_header

        def header_then_append(path, *args):
            header = read_header(path, *args)
            append_once(path)
            return header

        monkeypatch.setattr(formats_v2, "read_blocked_header", header_then_append)
        monkeypatch.setattr(sharded, "read_blocked_header", header_then_append)
    else:
        def open_then_append(path, *args):
            handle = open(path, *args)
            append_once(path)
            return handle

        shim = _OsOpenThen("shard-00003.m3b", lambda: append_once("shard-00003.m3b"))
        monkeypatch.setattr(formats_v2, "os", shim)
        monkeypatch.setattr(sharded, "open", open_then_append, raising=False)
    with Session() as session, session.open(f"shard://{directory}") as dataset:
        assert not pending and dataset.generation == 1
        assert np.array(dataset.matrix[:]).tobytes() == X[:44].tobytes()
        assert np.asarray(dataset.labels).tobytes() == y[:44].tobytes()


@pytest.mark.parametrize("codec", CODECS)
def test_concurrent_refreshes_each_read_a_committed_prefix(tmp_path, codec):
    # Four readers on one session refresh, read and close snapshots that
    # share sealed state, beside an appender sealing a shard every other
    # append.  Every snapshot must read the first rows of what was appended.
    directory = tmp_path / "ds"
    X, y = _make(48 + 20 * 8, seed=4)
    write_sharded_dataset(directory, X[:48], y[:48], shard_rows=16, codec=codec, block_rows=4)
    appender = ShardAppender(directory, shard_rows=16)
    errors, stop = [], threading.Event()

    def reader(session):
        try:
            dataset = session.open(f"shard://{directory}")
            while not stop.is_set():
                rows = dataset.shape[0]
                assert np.array(dataset.matrix[:]).tobytes() == X[:rows].tobytes()
                assert np.asarray(dataset.labels).tobytes() == y[:rows].tobytes()
                dataset = session.refresh(dataset, close_previous=True)
            dataset.close()
        except Exception as error:  # reported by the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Session() as session:
            threads = [threading.Thread(target=reader, args=(session,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for start in range(48, X.shape[0], 8):
                appender.append(X[start : start + 8], y[start : start + 8])
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
