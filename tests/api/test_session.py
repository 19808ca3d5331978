"""Tests for the Session entry point."""

import numpy as np
import pytest

from repro.api import Dataset, LocalEngine, Session, StreamingEngine
from repro.ml import LogisticRegression


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
            session.create(tmp_path / "p.m3", X, y)
            dataset = session.open(tmp_path / "p.m3")
            assert dataset.backend_name == "mmap"

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
