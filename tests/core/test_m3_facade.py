"""Tests for Table 1's helpers (``open_dataset`` & co.) and configuration."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.advice import AccessAdvice
from repro.core.config import M3Config
from repro.core.m3 import create_dataset, load_matrix, open_dataset
from repro.core.mmap_matrix import MmapMatrix
from repro.data.formats import create_binary_matrix


class TestM3Config:
    def test_defaults(self):
        config = M3Config()
        assert config.chunk_rows == 4096
        assert config.default_advice is AccessAdvice.SEQUENTIAL
        assert config.mode == "r"
        assert config.record_traces is False

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            M3Config(chunk_rows=0)
        with pytest.raises(ValueError):
            M3Config(mode="w")

    def test_workspace_converted_to_path(self, tmp_path):
        config = M3Config(workspace=str(tmp_path))
        assert config.workspace == tmp_path


class TestCreateAndOpen:
    def test_create_then_open_roundtrip(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "round.m3", X, y)
        assert path == tmp_path / "round.m3"
        matrix, labels = open_dataset(path)
        assert isinstance(matrix, MmapMatrix)
        np.testing.assert_allclose(np.asarray(matrix), X)
        np.testing.assert_array_equal(np.asarray(labels), y)

    def test_helpers_are_exported_from_the_package(self, tmp_path, small_classification):
        import repro
        import repro.core as m3

        X, y = small_classification
        path = m3.create_dataset(tmp_path / "module.m3", X, y)
        matrix, labels = repro.open_dataset(path)
        np.testing.assert_allclose(np.asarray(matrix), X)
        np.testing.assert_array_equal(np.asarray(labels), y)
        assert m3.load_matrix is load_matrix

    def test_open_without_labels(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(12, 3))
        path = create_dataset(tmp_path / "nolabels.m3", data)
        matrix, labels = open_dataset(path)
        assert labels is None
        assert matrix.shape == (12, 3)

    def test_info_of_an_empty_dataset(self, tmp_path):
        create_binary_matrix(tmp_path / "empty.m3", 8, 4)
        with Session() as session:
            info = session.info(tmp_path / "empty.m3")
        assert info["rows"] == 8 and info["cols"] == 4
        assert info["has_labels"] is False

    def test_info(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "info.m3", X, y)
        with Session() as session:
            info = session.info(path)
        assert info["rows"] == X.shape[0]
        assert info["has_labels"] is True
        assert info["dtype"] == "float64"

    def test_trace_recording_enabled_by_config(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "traced.m3", X, y)
        with Session(M3Config(record_traces=True)) as session:
            dataset = session.open(path)
            _ = dataset.matrix[0:10]
            assert dataset.trace is not None
            assert len(dataset.trace) == 1

    def test_trace_recording_off_by_default(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "untraced.m3", X, y)
        matrix, _ = open_dataset(path)
        assert matrix.trace is None

    def test_record_trace_lands_on_the_returned_matrix(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "pertrace.m3", X, y)
        first, _ = open_dataset(path, record_trace=True)
        second, _ = open_dataset(path, record_trace=True)
        _ = first[0:4]
        # Per handle: one open's reads never show up in another's trace.
        assert len(first.trace) == 1
        assert len(second.trace) == 0


class TestLoadMatrix:
    def test_load_m3_format_without_shape(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "fmt.m3", X, y)
        matrix = load_matrix(path)
        assert matrix.shape == X.shape

    def test_load_raw_file_with_shape(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        path = tmp_path / "raw.bin"
        path.write_bytes(data.tobytes())
        matrix = load_matrix(path, shape=(6, 4))
        np.testing.assert_array_equal(np.asarray(matrix), data)

    def test_load_raw_file_records_a_trace_on_request(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        path = tmp_path / "raw_traced.bin"
        path.write_bytes(data.tobytes())
        assert load_matrix(path, shape=(6, 4)).trace is None
        matrix = load_matrix(path, shape=(6, 4), record_trace=True)
        _ = matrix[0:2]
        assert len(matrix.trace) == 1


class TestOverSession:
    def test_created_dataset_is_visible_to_a_session(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "shim.m3", X, y)
        with Session() as session:
            assert session.exists(path)

    def test_open_dataset_accepts_shard_spec(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            session.create(f"shard://{tmp_path}/shards", X, y, shard_rows=64)
        matrix, labels = open_dataset(f"shard://{tmp_path}/shards")
        np.testing.assert_allclose(np.asarray(matrix), X)
        np.testing.assert_array_equal(np.asarray(labels), y)

    def test_info_reports_backend(self, tmp_path, small_classification):
        X, y = small_classification
        path = create_dataset(tmp_path / "info2.m3", X, y)
        with Session() as session:
            info = session.info(path)
        assert info["backend"] == "mmap"
        assert info["file_bytes"] == path.stat().st_size

    def test_opens_share_no_handle(self, tmp_path, small_classification):
        # Callers hold bare (matrix, labels) tuples and rely on GC, so two
        # opens of one file must never share a mapping.
        X, y = small_classification
        path = create_dataset(tmp_path / "leak.m3", X, y)
        first, _ = open_dataset(path)
        second, _ = open_dataset(path)
        assert first.backing is not second.backing

    def test_no_module_state(self):
        import repro.core.m3 as module

        assert not hasattr(module, "M3")
        assert not [name for name in vars(module) if name.startswith("_DEFAULT")]


def test_open_dataset_sharded_labels_are_plain_ndarray(tmp_path):
    """Bare-tuple consumers use ndarray operators on labels."""
    from repro.api.sharded import write_sharded_dataset

    X = np.arange(40.0).reshape(10, 4)
    y = np.arange(10) % 3
    write_sharded_dataset(tmp_path / "legacy_shards", X, y, shard_rows=4)
    _, labels = open_dataset(f"shard://{tmp_path / 'legacy_shards'}")
    assert isinstance(labels, np.ndarray)
    assert int((labels > 1).sum()) == int((y > 1).sum())
