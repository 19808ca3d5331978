"""Tests for the sharded dataset format and the stitched ShardedMatrix."""

import json

import numpy as np
import pytest

from repro.api.sharded import (
    ShardAppender,
    ShardedMatrix,
    read_manifest,
    write_sharded_dataset,
)
from repro.api.storage import ShardedBackend


@pytest.fixture()
def sharded_dir(tmp_path):
    """A 25x4 matrix with labels split across shards of 7 rows."""
    X = np.arange(100.0).reshape(25, 4)
    y = np.arange(25) % 3
    write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=7)
    return tmp_path / "ds", X, y


#: The stores one ShardedMatrix reads: mapped raw rows, and two decoded ones
#: (float32 storage is exact on the integer-valued fixture).
STORES = {
    "mapped-none": {},
    "zlib": {"codec": "zlib", "block_rows": 3},
    "float32-none": {"codec": "none", "block_rows": 3, "storage_dtype": np.float32},
}


@pytest.fixture(params=sorted(STORES))
def stored_dir(request, tmp_path):
    """The ``sharded_dir`` rows written as one of :data:`STORES`."""
    X = np.arange(100.0).reshape(25, 4)
    write_sharded_dataset(tmp_path / "ds", X, shard_rows=7, **STORES[request.param])
    with ShardedMatrix(tmp_path / "ds") as matrix:
        assert matrix.mapped == (request.param == "mapped-none")
        yield matrix, X


class TestWriteShardedDataset:
    def test_manifest_and_files(self, sharded_dir):
        directory, X, _ = sharded_dir
        manifest = read_manifest(directory)
        assert manifest.rows == 25 and manifest.cols == 4
        assert [s.rows for s in manifest.shards] == [7, 7, 7, 4]
        for shard in manifest.shards:
            assert (directory / shard.filename).is_file()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a sharded dataset"):
            read_manifest(tmp_path)

    def test_non_contiguous_shards_rejected(self, sharded_dir):
        directory, _, _ = sharded_dir
        payload = json.loads((directory / "manifest.json").read_text())
        payload["shards"][1]["start_row"] = 99
        (directory / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="contiguously"):
            read_manifest(directory)

    def test_row_coverage_mismatch_rejected(self, sharded_dir):
        directory, _, _ = sharded_dir
        payload = json.loads((directory / "manifest.json").read_text())
        payload["rows"] = 26
        (directory / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="declares"):
            read_manifest(directory)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_sharded_dataset(tmp_path / "bad", np.zeros(4))
        with pytest.raises(ValueError, match="shard_rows"):
            write_sharded_dataset(tmp_path / "bad", np.zeros((4, 2)), shard_rows=0)
        with pytest.raises(ValueError, match="labels"):
            write_sharded_dataset(tmp_path / "bad", np.zeros((4, 2)), np.zeros(3))


class TestShardedMatrixReads:
    def test_geometry(self, sharded_dir):
        directory, X, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        assert matrix.shape == X.shape
        assert matrix.dtype == X.dtype
        assert matrix.ndim == 2
        assert len(matrix) == 25
        assert matrix.nbytes == X.nbytes
        assert matrix.num_shards == 4

    @pytest.mark.parametrize(
        "key",
        [
            0,
            24,
            -1,
            slice(None),
            slice(2, 5),            # inside one shard
            slice(5, 10),           # across a shard boundary
            slice(0, 25),           # all shards
            slice(20, 3, -1),
            slice(None, None, 3),
            slice(None, None, -2),
            [3, 8, 14, 22],
            [22, 3, 3, -1],
            [],
            (slice(4, 12), slice(1, 3)),
            (slice(4, 12), 2),
            ([2, 9, 16], slice(None)),
            ([2, 9, 16], [0, 1, 3]),
            ([2, 9], 1),
            (5, slice(1, 3)),
            (5, 2),
            (-3, 0),
        ],
    )
    def test_matches_numpy(self, stored_dir, key):
        matrix, X = stored_dir
        np.testing.assert_array_equal(np.asarray(matrix[key]), X[key])

    def test_boolean_mask(self, sharded_dir):
        directory, X, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        mask = X[:, 0] > 40.0
        np.testing.assert_array_equal(matrix[mask], X[mask])
        np.testing.assert_array_equal(matrix[np.zeros(25, bool)], X[np.zeros(25, bool)])

    def test_single_shard_slice_is_view(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        chunk = matrix[1:6]  # rows 1..5 live in shard 0
        assert isinstance(chunk, np.memmap)

    def test_unsealed_tail_slice_is_view(self, sharded_dir):
        # Two appends grow an unsealed tail; its rows are still served as
        # views of the tail file's mapping.
        directory, X, y = sharded_dir
        appender = ShardAppender(directory)
        appender.append(X[:3], y[:3])
        appender.append(X[3:5], y[3:5])
        matrix = ShardedMatrix(directory)
        assert not matrix.manifest.shards[-1].sealed
        chunk = matrix[25:30]
        assert np.shares_memory(chunk, matrix._maps[-1])
        np.testing.assert_array_equal(chunk, X[:5])
        labels = matrix.lazy_labels.range(25, 30)
        assert np.shares_memory(labels, matrix._label_maps[-1])

    def test_materialise(self, sharded_dir):
        directory, X, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        np.testing.assert_array_equal(np.asarray(matrix), X)
        np.testing.assert_array_equal(matrix.__array__(np.float32), X.astype(np.float32))

    def test_labels_stitched(self, sharded_dir):
        directory, _, y = sharded_dir
        matrix = ShardedMatrix(directory)
        np.testing.assert_array_equal(matrix.read_labels(), y)

    def test_no_labels(self, tmp_path):
        write_sharded_dataset(tmp_path / "nl", np.zeros((6, 2)), shard_rows=4)
        assert ShardedMatrix(tmp_path / "nl").read_labels() is None

    def test_out_of_range_rejected(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        with pytest.raises(IndexError):
            matrix[25]
        with pytest.raises(IndexError):
            matrix[[0, 30]]
        with pytest.raises(IndexError):
            matrix[np.ones(3, dtype=bool)]

    def test_unsupported_keys_rejected(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        with pytest.raises(TypeError):
            matrix[None]
        with pytest.raises(TypeError):
            matrix[0, 0, 0]


class TestShardedMatrixWrites:
    def test_readonly_rejects_writes(self, sharded_dir):
        # Sharded datasets change only through ShardAppender: no writable
        # mode, no item assignment.
        directory, _, _ = sharded_dir
        with pytest.raises(TypeError, match="mode"):
            ShardedBackend().open(str(directory), mode="r+")
        with pytest.raises(TypeError):
            ShardedMatrix(directory)[0] = 0.0


class TestLifecycle:
    def test_closed_matrix_rejects_access(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        matrix.close()
        with pytest.raises(RuntimeError, match="closed"):
            _ = matrix[0]
        matrix.close()  # idempotent

    def test_shape_mismatch_detected(self, sharded_dir):
        directory, _, _ = sharded_dir
        payload = json.loads((directory / "manifest.json").read_text())
        # Keep the manifest internally consistent (still tiles 25 rows) but
        # out of sync with the actual shard file headers (7 rows each).
        payload["shards"][0]["rows"] = 6
        payload["shards"][1]["start_row"] = 6
        payload["shards"][1]["rows"] = 8
        (directory / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="manifest expects"):
            ShardedMatrix(directory)


class TestLazyLabels:
    def test_labels_not_stitched_until_asked(self, sharded_dir):
        directory, _, y = sharded_dir
        matrix = ShardedMatrix(directory)
        labels = matrix.lazy_labels
        assert not labels.is_materialized
        np.testing.assert_array_equal(np.asarray(labels), y)
        assert labels.is_materialized

    def test_range_gather_without_materialising(self, sharded_dir):
        directory, _, y = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        # Within one shard, straddling a boundary, and the ragged tail.
        np.testing.assert_array_equal(labels.range(1, 6), y[1:6])
        np.testing.assert_array_equal(labels[5:10], y[5:10])
        np.testing.assert_array_equal(labels[20:25], y[20:25])
        np.testing.assert_array_equal(labels[0:0], y[0:0])
        assert labels[3] == int(y[3])
        assert not labels.is_materialized
        assert len(labels) == 25 and labels.shape == (25,)

    def test_single_shard_range_is_view(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        piece = matrix.lazy_labels.range(0, 7)
        assert any(
            lab is not None and np.shares_memory(piece, lab)
            for lab in matrix._label_maps
        )

    def test_unique_without_materialising(self, sharded_dir):
        directory, _, y = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        np.testing.assert_array_equal(labels.unique(), np.unique(y))
        assert not labels.is_materialized

    def test_read_labels_returns_cached_stitch(self, sharded_dir):
        directory, _, y = sharded_dir
        matrix = ShardedMatrix(directory)
        first = matrix.read_labels()
        np.testing.assert_array_equal(first, y)
        assert matrix.read_labels() is first  # cached, stitched once

    def test_no_labels_view(self, tmp_path):
        write_sharded_dataset(tmp_path / "nl2", np.zeros((6, 2)), shard_rows=4)
        assert ShardedMatrix(tmp_path / "nl2").lazy_labels is None


class TestLazyLabelsEdgeCases:
    """Negative/empty slices, multi-shard straddles and missing label files."""

    def test_negative_slices_match_numpy(self, sharded_dir):
        directory, _, y = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        np.testing.assert_array_equal(labels[-5:], y[-5:])
        np.testing.assert_array_equal(labels[:-20], y[:-20])
        np.testing.assert_array_equal(labels[-10:-3], y[-10:-3])
        assert not labels.is_materialized

    def test_negative_integer_indices(self, sharded_dir):
        directory, _, y = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        assert labels[-1] == int(y[-1])
        assert labels[-25] == int(y[0])
        with pytest.raises(IndexError):
            labels[-26]
        with pytest.raises(IndexError):
            labels[25]

    def test_empty_and_inverted_slices(self, sharded_dir):
        directory, _, _ = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        assert labels[10:10].shape == (0,)
        assert labels[12:5].shape == (0,)  # inverted: empty, like NumPy
        assert labels.range(30, 40).shape == (0,)  # past the end
        assert labels[10:10].dtype == np.int64

    def test_range_straddling_three_or_more_shards(self, sharded_dir):
        # Shards hold rows [0,7) [7,14) [14,21) [21,25): [2, 23) overlaps
        # all four, [5, 16) overlaps three.
        directory, _, y = sharded_dir
        labels = ShardedMatrix(directory).lazy_labels
        np.testing.assert_array_equal(labels.range(5, 16), y[5:16])
        np.testing.assert_array_equal(labels[2:23], y[2:23])
        np.testing.assert_array_equal(labels.range(0, 25), y)
        assert not labels.is_materialized

    @pytest.fixture()
    def labels_with_missing_shard(self, sharded_dir):
        """The lazy view of a dataset where one shard's label map is gone."""
        directory, _, y = sharded_dir
        matrix = ShardedMatrix(directory)
        matrix._label_maps[1] = None  # simulate a shard written without labels
        return matrix.lazy_labels, y

    def test_unique_skips_shards_with_missing_label_files(self, labels_with_missing_shard):
        labels, y = labels_with_missing_shard
        # unique() is documented to compute shard by shard; a label-less
        # shard contributes nothing instead of crashing the whole scan.
        expected = np.unique(np.concatenate([y[:7], y[14:]]))
        np.testing.assert_array_equal(labels.unique(), expected)

    def test_unique_with_all_label_files_missing(self, sharded_dir):
        directory, _, _ = sharded_dir
        matrix = ShardedMatrix(directory)
        matrix._label_maps = [None] * len(matrix._label_maps)
        result = matrix.lazy_labels.unique()
        assert result.shape == (0,)
        assert result.dtype == np.int64

    def test_range_into_missing_shard_raises(self, labels_with_missing_shard):
        labels, _ = labels_with_missing_shard
        with pytest.raises(ValueError, match="no labels"):
            labels.range(5, 10)  # straddles into the label-less shard
        # Ranges that avoid the damaged shard still work.
        assert labels.range(0, 7).shape == (7,)
        assert labels.range(14, 25).shape == (11,)
