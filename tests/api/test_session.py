"""Tests for the Session entry point."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import Dataset, LocalEngine, Session, StreamingEngine, chunks, sharded, storage
from repro.api.sharded import ShardAppender, write_sharded_dataset
from repro.api.storage import ShardedBackend
from repro.ml import GaussianNaiveBayes, LogisticRegression
from repro.serve import Trainer


@pytest.fixture()
def xy():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] > 0).astype(np.int64)
    return X, y


class TestOpenCreate:
    def test_create_and_open_mmap(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/d.m3", X, y)
            assert spec == f"mmap://{tmp_path}/d.m3"
            dataset = session.open(spec)
            assert isinstance(dataset, Dataset)
            assert dataset.backend_name == "mmap"
            np.testing.assert_array_equal(np.asarray(dataset), X)

    def test_create_and_open_sharded(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"shard://{tmp_path}/ds", X, y, shard_rows=16)
            dataset = session.open(spec)
            assert dataset.backend_name == "shard"
            assert dataset.info()["num_shards"] == 4
            np.testing.assert_array_equal(np.asarray(dataset), X)
            np.testing.assert_array_equal(np.asarray(dataset.labels), y)

    def test_memory_datasets_are_session_scoped(self, xy):
        X, y = xy
        with Session() as a, Session() as b:
            a.create("memory://train", X, y)
            assert a.exists("memory://train")
            assert not b.exists("memory://train")

    def test_from_arrays(self, xy):
        X, y = xy
        with Session() as session:
            dataset = session.from_arrays(X, y)
            assert dataset.backend_name == "memory"
            assert dataset.shape == X.shape

    def test_plain_path_accepted(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            # A bare path that names nothing yet creates one mapped shard
            # (mmap); once created it names a directory, which opens as shard.
            assert session.create(tmp_path / "p.m3", X, y) == f"mmap://{tmp_path / 'p.m3'}"
            dataset = session.open(tmp_path / "p.m3")
            assert dataset.backend_name == "shard"
            assert dataset.info()["num_shards"] == 1 and dataset.matrix.backing.mapped

    def test_info(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            session.create(f"mmap://{tmp_path}/i.m3", X, y)
            info = session.info(f"mmap://{tmp_path}/i.m3")
            assert info["rows"] == 60 and info["has_labels"] is True


class TestOpenDefaults:
    def test_record_trace_per_open(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            session.create(f"mmap://{tmp_path}/t.m3", X, y)
            dataset = session.open(f"mmap://{tmp_path}/t.m3", record_trace=True)
            assert dataset.trace is not None
            _ = dataset[0:5]
            assert len(dataset.trace) == 1

    def test_record_trace_override(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            session.create(f"mmap://{tmp_path}/t.m3", X, y)
            assert session.open(f"mmap://{tmp_path}/t.m3").trace is None
            assert (
                session.open(f"mmap://{tmp_path}/t.m3", record_trace=True).trace
                is not None
            )

    def test_default_engine(self):
        assert isinstance(Session().default_engine, LocalEngine)
        assert isinstance(Session(engine="streaming").default_engine, StreamingEngine)
        engine = StreamingEngine(chunk_rows=8)
        assert Session(engine=engine).default_engine is engine


class TestFit:
    def test_fit_open_dataset(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            session.create(f"mmap://{tmp_path}/f.m3", X, y)
            dataset = session.open(f"mmap://{tmp_path}/f.m3")
            result = session.fit(LogisticRegression(max_iterations=5), dataset)
            assert result.engine == "local"
            assert hasattr(result.model, "coef_")
            assert result.wall_time_s >= 0

    def test_fit_spec_string_opens_and_closes(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/s.m3", X, y)
            result = session.fit(LogisticRegression(max_iterations=5), spec)
            assert hasattr(result.model, "coef_")

    def test_fit_label_override(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            session.create(f"mmap://{tmp_path}/o.m3", X)  # unlabelled
            dataset = session.open(f"mmap://{tmp_path}/o.m3")
            result = session.fit(LogisticRegression(max_iterations=5), dataset, y=y)
            assert hasattr(result.model, "coef_")


class TestLifecycle:
    def test_close_closes_datasets(self, tmp_path, xy):
        X, y = xy
        session = Session()
        session.create(f"mmap://{tmp_path}/c.m3", X, y)
        dataset = session.open(f"mmap://{tmp_path}/c.m3")
        session.close()
        assert session.closed
        assert dataset.closed
        session.close()  # idempotent

    def test_closed_session_rejects_use(self, xy):
        X, y = xy
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.from_arrays(X, y)
        with pytest.raises(RuntimeError, match="closed"):
            session.fit(LogisticRegression(), "memory://x")
        with pytest.raises(RuntimeError, match="closed"):
            session.info("memory://x")
        with pytest.raises(RuntimeError, match="closed"):
            session.exists("memory://x")

    def test_repr(self):
        session = Session()
        assert "local" in repr(session)


class TestPlainOpens:
    """Every open maps and opens the dataset afresh and owns what it opened."""

    def test_an_open_after_a_close_reads_a_rewritten_dataset(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/rw.m3", X, y)
            session.open(spec).close()
            write_sharded_dataset(tmp_path / "rw.m3", X * 10.0, y, shard_rows=len(X))
            np.testing.assert_array_equal(np.asarray(session.open(spec)[:3]), X[:3] * 10.0)

    def test_an_open_after_create_reads_the_new_bytes(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/cr.m3", X, y)
            first = session.open(spec)
            session.create(spec, X + 1.0, y)
            second = session.open(spec)
            assert second.matrix.backing is not first.matrix.backing
            np.testing.assert_array_equal(np.asarray(second[:3]), X[:3] + 1.0)

    def test_an_open_after_an_external_rewrite_reads_the_new_bytes(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/ext.m3", X, y)
            first = session.open(spec)  # still open
            write_sharded_dataset(tmp_path / "ext.m3", X * 3.0, y, shard_rows=len(X))
            np.testing.assert_array_equal(np.asarray(session.open(spec)[:3]), X[:3] * 3.0)
            first.close()

    @pytest.mark.parametrize("scheme", ["mmap", "shard"])
    def test_two_opens_of_one_spec_close_independently(self, tmp_path, xy, scheme):
        X, y = xy
        with Session() as session:
            spec = session.create(f"{scheme}://{tmp_path}/two", X, y)
            first, second = session.open(spec), session.open(spec)
            assert first.matrix.backing is not second.matrix.backing
            first.close()
            np.testing.assert_array_equal(np.asarray(second[:2]), X[:2])
            np.testing.assert_array_equal(np.asarray(second.labels), y)
            backing = second.matrix.backing
            second.close()
            with pytest.raises(RuntimeError, match="closed"):
                backing[0:2]

    def test_every_open_and_refresh_advises_its_own_maps_sequential(
        self, tmp_path, xy, monkeypatch
    ):
        # madvise applies to a whole mapping; each open maps its own shards
        # and marks each map MADV_SEQUENTIAL once, through the hinter.
        X, y = xy
        advised = []
        madvise = chunks.ReadaheadHinter._madvise

        def spy(segment, option_name, offset, length):
            advised.append((option_name, offset, length))
            return madvise(segment, option_name, offset, length)

        monkeypatch.setattr(chunks.ReadaheadHinter, "_madvise", staticmethod(spy))
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/adv.m3", X, y)
            first = session.open(spec)
            second = session.open(spec)
            second.append(X[:3], y[:3])
            third = session.refresh(second)
            # One map for each of the first two opens, two for the refresh's
            # shards: the append started a second one.
            assert advised == [("MADV_SEQUENTIAL", 0, None)] * 4
            np.testing.assert_array_equal(np.asarray(first[:3]), X[:3])
            assert third.shape == (len(X) + 3, X.shape[1])

    def test_closed_datasets_are_pruned_from_the_session(self, tmp_path, xy):
        X, y = xy
        with Session() as session:
            spec = session.create(f"mmap://{tmp_path}/churn.m3", X, y)
            kept = session.open(spec)
            for _ in range(50):
                session.open(spec).close()
            assert session._datasets == [kept]
            kept.close()
            assert session._datasets == []

    def test_an_append_during_an_open_is_seen_by_the_next_open(
        self, tmp_path, xy, monkeypatch
    ):
        X, y = xy
        with Session() as session:
            spec = session.create(f"shard://{tmp_path}/race", X, y, shard_rows=8)
            appender = ShardAppender(tmp_path / "race", shard_rows=8)
            open_ = ShardedBackend.open
            pending = [lambda: appender.append(X[:4], y[:4])]

            def open_then_append(backend, *args, **kwargs):
                handle = open_(backend, *args, **kwargs)
                while pending:
                    pending.pop()()
                return handle

            monkeypatch.setattr(ShardedBackend, "open", open_then_append)
            first = session.open(spec)
            second = session.open(spec)
            assert (first.generation, second.generation) == (0, 1)
            assert second.shape[0] == X.shape[0] + 4
            first.close()
            second.close()


class _Counts:
    """Counts manifest reads, ``CURRENT`` reads and stats of shard files."""

    def __init__(self, monkeypatch):
        self.manifests = self.currents = self.shard_stats = 0
        read_manifest, read_text, stat = sharded.read_manifest, Path.read_text, os.stat

        def counted_read_manifest(*args, **kwargs):
            self.manifests += 1
            return read_manifest(*args, **kwargs)

        def counted_read_text(path, *args, **kwargs):
            self.currents += path.name == sharded.CURRENT_NAME
            return read_text(path, *args, **kwargs)

        def counted_stat(path, *args, **kwargs):
            self.shard_stats += str(path).endswith(".m3b")
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(sharded, "read_manifest", counted_read_manifest)
        monkeypatch.setattr(storage, "read_manifest", counted_read_manifest)
        monkeypatch.setattr(Path, "read_text", counted_read_text)
        monkeypatch.setattr(os, "stat", counted_stat)


@pytest.mark.parametrize("codec", [None, "zlib"])
def test_an_open_reads_the_manifest_once_and_a_poll_reads_current_twice(
    tmp_path, monkeypatch, codec
):
    directory = tmp_path / "ds"
    X = np.random.default_rng(3).normal(size=(64 * 8, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    write_sharded_dataset(directory, X, y, shard_rows=8, codec=codec)
    counts = _Counts(monkeypatch)
    with Session() as session:
        session.open(f"shard://{directory}").close()
    # One manifest parse, and no shard stat beside the open of its files.
    assert (counts.manifests, counts.shard_stats) == (1, 0)
    with Trainer(f"shard://{directory}", GaussianNaiveBayes()) as trainer:
        trainer.poll_once()
        ShardAppender(directory, shard_rows=8).append(X[:4], y[:4])
        counts.manifests = counts.currents = counts.shard_stats = 0
        assert trainer.poll_once().rows == 4
    # CURRENT is read by the trainer's generation poll and by the refresh's
    # manifest read, and by nothing else.
    assert (counts.currents, counts.manifests, counts.shard_stats) == (2, 1, 0)
