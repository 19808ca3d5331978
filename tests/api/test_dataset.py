"""Tests for the Dataset handle."""

import numpy as np
import pytest

from repro.api import Session
from repro.api.sharded import ShardedMatrix
from repro.core.mmap_matrix import MmapMatrix


@pytest.fixture()
def session_and_dataset(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    y = np.arange(20) % 2
    session = Session()
    session.create(f"mmap://{tmp_path}/ds.m3", X, y)
    dataset = session.open(f"mmap://{tmp_path}/ds.m3")
    yield session, dataset, X, y
    session.close()


class TestHandle:
    def test_geometry(self, session_and_dataset):
        _, dataset, X, _ = session_and_dataset
        assert dataset.shape == X.shape
        assert dataset.dtype == np.float64
        assert dataset.ndim == 2
        assert len(dataset) == 20
        assert dataset.nbytes == X.nbytes
        assert dataset.has_labels

    def test_matrix_is_one_mapped_shard(self, session_and_dataset):
        _, dataset, _, _ = session_and_dataset
        assert isinstance(dataset.matrix, MmapMatrix)
        backing = dataset.matrix.backing
        assert isinstance(backing, ShardedMatrix)
        assert backing.mapped and backing.num_shards == 1
        # Zero-copy: a row range is a view of the shard's map, whose rows
        # start on a cache line.
        assert isinstance(dataset[2:9], np.memmap)
        assert dataset[0:1].ctypes.data % 64 == 0

    def test_arrays_matches_legacy_shape(self, session_and_dataset):
        _, dataset, X, y = session_and_dataset
        matrix, labels = dataset.arrays()
        np.testing.assert_array_equal(np.asarray(matrix), X)
        np.testing.assert_array_equal(np.asarray(labels), y)

    def test_getitem_delegates(self, session_and_dataset):
        _, dataset, X, _ = session_and_dataset
        np.testing.assert_array_equal(dataset[3:9], X[3:9])
        np.testing.assert_array_equal(dataset[(5, slice(1, 3))], X[5, 1:3])

    def test_info(self, session_and_dataset):
        _, dataset, _, _ = session_and_dataset
        info = dataset.info()
        assert info["backend"] == "mmap"
        assert info["rows"] == 20


class TestTracing:
    def test_no_trace_by_default(self, session_and_dataset):
        _, dataset, _, _ = session_and_dataset
        assert dataset.trace is None

    def test_record_trace_is_per_handle(self, session_and_dataset):
        session, dataset, _, _ = session_and_dataset
        traced = session.open(dataset.spec, record_trace=True)
        _ = traced[0:10]
        _ = dataset[0:10]
        assert len(traced.trace) == 1  # the untraced handle's read is not in it
        assert dataset.trace is None


class TestLifecycle:
    def test_context_manager_closes(self, tmp_path):
        session = Session()
        session.create(f"mmap://{tmp_path}/cm.m3", np.ones((4, 2)))
        with session.open(f"mmap://{tmp_path}/cm.m3") as dataset:
            assert not dataset.closed
        assert dataset.closed

    def test_closed_rejects_access(self, session_and_dataset):
        _, dataset, _, _ = session_and_dataset
        dataset.close()
        with pytest.raises(RuntimeError, match="closed"):
            _ = dataset.matrix
        with pytest.raises(RuntimeError, match="closed"):
            _ = dataset[0]
        dataset.close()  # idempotent

    def test_handle_is_read_only_and_rows_come_by_append(self, session_and_dataset):
        session, dataset, X, y = session_and_dataset
        with pytest.raises(TypeError):
            dataset[1] = [5.0, 6.0, 7.0, 8.0]
        with pytest.raises(TypeError):
            dataset.matrix[1] = 0.0
        assert dataset.append(X[:3] + 1.0, y[:3]) == 1
        assert dataset.shape == X.shape  # the snapshot is unaffected
        refreshed = session.refresh(dataset)
        np.testing.assert_array_equal(refreshed[20:], X[:3] + 1.0)
        np.testing.assert_array_equal(np.asarray(refreshed.labels)[20:], y[:3])

    def test_repr(self, session_and_dataset):
        _, dataset, _, _ = session_and_dataset
        text = repr(dataset)
        assert "mmap" in text and "open" in text
