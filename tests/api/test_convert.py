"""Tests for streaming dataset conversion into blocked shards."""

import numpy as np
import pytest

from repro.api import Session, convert
from repro.api.convert import convert_dataset
from repro.api.sharded import (
    ShardedMatrix,
    open_sharded_matrix,
    read_manifest,
    write_sharded_dataset,
)


@pytest.fixture()
def source(tmp_path, rng):
    X = rng.integers(0, 6, size=(1000, 8)).astype(np.float64)
    y = rng.integers(0, 3, size=1000).astype(np.int64)
    write_sharded_dataset(tmp_path / "v1", X, y, shard_rows=400)
    return tmp_path, X, y


class TestConvert:
    def test_v1_directory_to_v2(self, source):
        tmp_path, X, y = source
        manifest = convert_dataset(tmp_path / "v1", tmp_path / "v2",
                                   codec="zlib", block_rows=128)
        assert manifest.codec == "zlib"
        assert manifest.ratio > 1.0
        matrix = open_sharded_matrix(tmp_path / "v2")
        np.testing.assert_array_equal(matrix[:], X)
        np.testing.assert_array_equal(matrix.lazy_labels[:], y)
        matrix.close()

    @pytest.mark.parametrize("codec", ["zlib", None])
    def test_bytes_do_not_depend_on_the_copy_height(self, source, monkeypatch, codec):
        # CONVERT_CHUNK_ROWS bounds memory only, so it is a constant, not an option.
        tmp_path, _X, _y = source
        written = []
        for chunk_rows in (7, 1024):
            monkeypatch.setattr(convert, "CONVERT_CHUNK_ROWS", chunk_rows)
            destination = tmp_path / f"copy-{chunk_rows}"
            convert_dataset(tmp_path / "v1", destination, codec=codec, block_rows=96)
            written.append({path.name: path.read_bytes() for path in destination.iterdir()})
        assert written[0] == written[1]

    def test_zlib_back_to_raw_round_trip(self, source):
        tmp_path, X, y = source
        convert_dataset(tmp_path / "v1", tmp_path / "v2", codec="zlib")
        convert_dataset(tmp_path / "v2", tmp_path / "back", codec=None)
        back = read_manifest(tmp_path / "back")
        assert (back.codec, back.to_json()["version"], back.mapped) == ("none", 2, True)
        matrix = open_sharded_matrix(tmp_path / "back")
        assert type(matrix) is ShardedMatrix
        np.testing.assert_array_equal(matrix[:], X)
        np.testing.assert_array_equal(matrix.lazy_labels[:], y)
        matrix.close()

    def test_single_file_source(self, source, tmp_path, write_v1):
        _tmp, X, y = source
        write_v1(tmp_path / "one.m3", X, y)
        manifest = convert_dataset(tmp_path / "one.m3", tmp_path / "from_file",
                                   codec="zlib", shard_rows=300)
        assert len(manifest.shards) == 4  # 1000 rows / 300
        matrix = open_sharded_matrix(tmp_path / "from_file")
        np.testing.assert_array_equal(matrix[:], X)
        matrix.close()

    def test_bounded_chunk_copy_is_exact(self, source, monkeypatch):
        tmp_path, X, y = source
        # Copy bands deliberately misaligned with shards and blocks.
        monkeypatch.setattr(convert, "CONVERT_CHUNK_ROWS", 77)
        convert_dataset(tmp_path / "v1", tmp_path / "v2", codec="zlib", block_rows=128)
        matrix = open_sharded_matrix(tmp_path / "v2")
        np.testing.assert_array_equal(matrix[:], X)
        np.testing.assert_array_equal(matrix.lazy_labels[:], y)
        matrix.close()

    def test_keeps_source_shard_height_by_default(self, source):
        tmp_path, _X, _y = source
        manifest = convert_dataset(tmp_path / "v1", tmp_path / "v2", codec="zlib")
        assert max(s.rows for s in manifest.shards) == 400

    def test_storage_dtype_forwarded(self, source):
        tmp_path, X, _y = source
        manifest = convert_dataset(tmp_path / "v1", tmp_path / "v2",
                                   codec="zlib", storage_dtype=np.float32)
        assert manifest.to_json()["layout"] == "row"
        assert manifest.storage_dtype == np.dtype(np.float32)
        matrix = open_sharded_matrix(tmp_path / "v2")
        np.testing.assert_allclose(matrix[:], X, atol=1e-6)
        matrix.close()

    def test_refuses_self_and_occupied_destinations(self, source):
        tmp_path, _X, _y = source
        with pytest.raises(ValueError, match="itself"):
            convert_dataset(tmp_path / "v1", tmp_path / "v1")
        convert_dataset(tmp_path / "v1", tmp_path / "v2", codec="zlib")
        with pytest.raises(ValueError, match="refusing"):
            convert_dataset(tmp_path / "v1", tmp_path / "v2")

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            convert_dataset(tmp_path / "nope", tmp_path / "out")

    def test_raw_output_takes_block_rows(self, source):
        tmp_path, X, _y = source
        manifest = convert_dataset(tmp_path / "v1", tmp_path / "out",
                                   codec=None, block_rows=64)
        assert (manifest.codec, manifest.block_rows) == ("none", 64)
        with open_sharded_matrix(tmp_path / "out") as matrix:
            assert type(matrix) is ShardedMatrix
            np.testing.assert_array_equal(matrix[:], X)

    @pytest.mark.parametrize("target", ["zlib", None], ids=["zlib", "raw"])
    @pytest.mark.parametrize("source_codec", ["raw", "zlib", "none"])
    def test_empty_sharded_dataset_converts(self, tmp_path, source_codec, target):
        # Every source shard holds 0 rows, so there is no shard height to keep.
        write_sharded_dataset(tmp_path / "empty", np.empty((0, 3)),
                              np.empty(0, dtype=np.int64),
                              codec=None if source_codec == "raw" else source_codec)
        convert_dataset(tmp_path / "empty", tmp_path / "out", codec=target)
        with Session() as session:
            assert session.open(f"shard://{tmp_path / 'out'}").shape == (0, 3)
