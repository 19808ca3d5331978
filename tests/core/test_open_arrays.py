"""Table 1's one changed line: ``X, y = session.open(spec).arrays()``."""

import numpy as np
import pytest

from repro.api import Session
from repro.core import MmapMatrix, mmap_alloc
from repro.vmem.trace import AccessTrace


class TestOpenDefaults:
    def test_read_only_untraced(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            spec = session.create(tmp_path / "defaults.m3", X, y)
            dataset = session.open(spec)
            assert dataset.trace is None
            with pytest.raises(TypeError):
                dataset.matrix[0:1] = 0.0


class TestCreateAndOpen:
    def test_create_then_open_roundtrip(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            spec = session.create(tmp_path / "round.m3", X, y)
            assert spec == f"mmap://{tmp_path / 'round.m3'}"
            matrix, labels = session.open(spec).arrays()
            assert isinstance(matrix, MmapMatrix)
            np.testing.assert_allclose(np.asarray(matrix), X)
            np.testing.assert_array_equal(np.asarray(labels), y)

    def test_open_without_labels(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(12, 3))
        with Session() as session:
            session.create(tmp_path / "nolabels.m3", data)
            matrix, labels = session.open(tmp_path / "nolabels.m3").arrays()
        assert labels is None
        assert matrix.shape == (12, 3)

    def test_info_of_an_unlabelled_dataset(self, tmp_path):
        with Session() as session:
            session.create(tmp_path / "unlabelled.m3", np.zeros((8, 4)))
            info = session.info(tmp_path / "unlabelled.m3")
        assert info["rows"] == 8 and info["cols"] == 4
        assert info["has_labels"] is False

    def test_info(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            session.create(tmp_path / "info.m3", X, y)
            info = session.info(tmp_path / "info.m3")
        assert info["rows"] == X.shape[0]
        assert info["has_labels"] is True
        assert info["dtype"] == "float64"
        # A bare path to the created directory resolves to the shard backend,
        # which mmap:// is but for create; the dataset, one raw shard holding
        # every row, reports the mmap backend however it is spelled.
        assert info["backend"] == "mmap"
        assert (info["num_shards"], info["codec"]) == (1, "none")
        shard = tmp_path / "info.m3" / "shard-00000.m3b"
        assert info["compressed_bytes"] < shard.stat().st_size

    def test_trace_recorded_on_request(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            session.create(tmp_path / "traced.m3", X, y)
            dataset = session.open(tmp_path / "traced.m3", record_trace=True)
            _ = dataset.matrix[0:10]
            _ = dataset.matrix[10:20]
            assert dataset.trace is not None
            # Offsets are logical matrix offsets, as for every shard:// open.
            # The v1 file recorded file offsets behind its 64-byte header:
            # 64 and 64 + 10 rows then, 0 and 10 rows now.
            row_bytes = X.shape[1] * 8
            assert [(r.offset, r.length) for r in dataset.trace] == [
                (0, 10 * row_bytes), (10 * row_bytes, 10 * row_bytes)
            ]

    def test_record_trace_lands_on_the_returned_matrix(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            session.create(tmp_path / "pertrace.m3", X, y)
            first, _ = session.open(tmp_path / "pertrace.m3", record_trace=True).arrays()
            second, _ = session.open(tmp_path / "pertrace.m3", record_trace=True).arrays()
            _ = first[0:4]
            # Per handle: one open's reads never show up in another's trace.
            assert len(first.trace) == 1
            assert len(second.trace) == 0


class TestHeaderlessFile:
    """The paper's ``mmapAlloc(file, rows * cols)``: any raw file of the right size."""

    def test_map_raw_file_with_shape(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        path = tmp_path / "raw.bin"
        path.write_bytes(data.tobytes())
        matrix = MmapMatrix(mmap_alloc(path, (6, 4), mode="r"))
        np.testing.assert_array_equal(np.asarray(matrix), data)
        assert matrix.trace is None

    def test_map_raw_file_records_a_trace_on_request(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        path = tmp_path / "raw_traced.bin"
        path.write_bytes(data.tobytes())
        matrix = MmapMatrix(mmap_alloc(path, (6, 4), mode="r"), trace=AccessTrace())
        _ = matrix[0:2]
        assert len(matrix.trace) == 1


class TestOverSession:
    def test_created_dataset_is_visible_to_a_session(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as writer:
            writer.create(tmp_path / "shim.m3", X, y)
        with Session() as session:
            assert session.exists(tmp_path / "shim.m3")

    def test_arrays_of_a_shard_spec(self, tmp_path, small_classification):
        X, y = small_classification
        with Session() as session:
            session.create(f"shard://{tmp_path}/shards", X, y, shard_rows=64)
            matrix, labels = session.open(f"shard://{tmp_path}/shards").arrays()
            np.testing.assert_allclose(np.asarray(matrix), X)
            np.testing.assert_array_equal(np.asarray(labels), y)

    def test_sharded_labels_materialise_as_plain_ndarray(self, tmp_path):
        from repro.api.sharded import write_sharded_dataset

        X = np.arange(40.0).reshape(10, 4)
        y = np.arange(10) % 3
        write_sharded_dataset(tmp_path / "shards", X, y, shard_rows=4)
        with Session() as session:
            _, labels = session.open(f"shard://{tmp_path / 'shards'}").arrays()
            labels = np.asarray(labels)
        assert isinstance(labels, np.ndarray)
        assert int((labels > 1).sum()) == int((y > 1).sum())

    def test_pool_less_opens_share_no_handle(self, tmp_path, small_classification):
        X, y = small_classification
        with Session(handle_pool_size=0) as session:
            session.create(tmp_path / "leak.m3", X, y)
            first, _ = session.open(tmp_path / "leak.m3").arrays()
            second, _ = session.open(tmp_path / "leak.m3").arrays()
            assert first.backing is not second.backing
