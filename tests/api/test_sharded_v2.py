"""Tests for compressed (v2) sharded datasets and manifest versioning."""

import json
import shutil
from collections import Counter

import numpy as np
import pytest

from repro.api.sharded import (
    ShardAppender,
    ShardManifest,
    ShardedMatrix,
    open_sharded_matrix,
    read_manifest,
    verify_dataset,
    write_sharded_dataset,
)
from repro.api.storage import ShardedBackend
from repro.data.formats_v2 import BlockedMatrixReader, write_blocked_matrix


@pytest.fixture()
def data(rng):
    return rng.integers(0, 6, size=(1100, 10)).astype(np.float64)


@pytest.fixture()
def labels(rng):
    return rng.integers(0, 4, size=1100).astype(np.int64)


@pytest.fixture()
def v2_dir(tmp_path, data, labels):
    directory = tmp_path / "v2"
    write_sharded_dataset(directory, data, labels, shard_rows=400,
                          codec="zlib", block_rows=128)
    return directory


class TestWriteAndOpen:
    def test_no_codec_writes_mapped_none_shards(self, tmp_path, data, labels):
        # codec=None writes exactly what codec="none" writes, and the
        # manifest alone decides that ShardedMatrix maps it.
        for codec in (None, "none"):
            write_sharded_dataset(tmp_path / str(codec), data, labels,
                                  shard_rows=400, codec=codec)
        files = sorted(path.name for path in (tmp_path / "None").iterdir())
        assert files == ["manifest.json"] + [f"shard-0000{i}.m3b" for i in range(3)]
        for name in files:
            assert (tmp_path / "None" / name).read_bytes() == (
                tmp_path / "none" / name
            ).read_bytes()
        payload = json.loads((tmp_path / "None" / "manifest.json").read_text())
        assert (payload["version"], payload["codec"]) == (2, "none")
        with open_sharded_matrix(tmp_path / "None") as matrix:
            assert type(matrix) is ShardedMatrix and matrix.mapped
            assert isinstance(matrix[10:20], np.memmap)
            np.testing.assert_array_equal(matrix[:], data)
            np.testing.assert_array_equal(matrix.lazy_labels[:], labels)

    def test_downcast_none_dataset_is_decoded(self, tmp_path, data):
        # Stored narrower than its logical dtype, a none file's bytes are
        # not the matrix any more: it is decoded, not mapped.
        write_sharded_dataset(tmp_path / "f32", data, shard_rows=400,
                              codec="none", storage_dtype=np.float32)
        with open_sharded_matrix(tmp_path / "f32") as matrix:
            assert type(matrix) is ShardedMatrix and not matrix.mapped
            np.testing.assert_array_equal(matrix[:], data)

    def test_v2_round_trip_bit_identical(self, v2_dir, data, labels):
        matrix = open_sharded_matrix(v2_dir)
        assert type(matrix) is ShardedMatrix and not matrix.mapped
        np.testing.assert_array_equal(matrix[:], data)
        np.testing.assert_array_equal(matrix.lazy_labels[:], labels)
        matrix.close()

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_every_codec_round_trips(self, tmp_path, data, labels, codec):
        directory = tmp_path / codec
        write_sharded_dataset(directory, data, labels, shard_rows=300,
                              codec=codec, block_rows=100)
        matrix = open_sharded_matrix(directory)
        np.testing.assert_array_equal(matrix[:], data)
        np.testing.assert_array_equal(matrix[123:456], data[123:456])
        fancy = np.array([0, 13, 299, 300, 301, 1099])
        np.testing.assert_array_equal(matrix[fancy], data[fancy])
        matrix.close()

    def test_float32_storage_close_to_source(self, tmp_path, rng):
        data = rng.standard_normal((500, 8))
        directory = tmp_path / "f32"
        write_sharded_dataset(directory, data, None, shard_rows=250,
                              codec="zlib", storage_dtype=np.float32)
        matrix = open_sharded_matrix(directory)
        assert matrix.dtype == np.float64
        assert matrix.manifest.storage_dtype == np.float32
        np.testing.assert_allclose(matrix[:], data, atol=1e-6)
        matrix.close()

    def test_compression_ratio_reported(self, v2_dir):
        manifest = read_manifest(v2_dir)
        assert manifest.to_json()["version"] == 2
        assert manifest.ratio > 1.0
        for shard in manifest.shards:
            assert shard.ratio > 1.0
        matrix = open_sharded_matrix(v2_dir)
        assert matrix.compressed_nbytes < matrix.nbytes
        matrix.close()

    def test_read_only(self, v2_dir):
        matrix = open_sharded_matrix(v2_dir)
        with pytest.raises((TypeError, ValueError)):
            matrix[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ShardedBackend().open(str(v2_dir), mode="r+")
        matrix.close()

    def test_block_cache_serves_repeat_random_access(self, v2_dir, data):
        matrix = open_sharded_matrix(v2_dir)
        np.testing.assert_array_equal(matrix[37], data[37])
        misses = matrix.block_cache.misses
        np.testing.assert_array_equal(matrix[38], data[38])  # same block
        assert matrix.block_cache.misses == misses
        assert matrix.block_cache.hits > 0
        matrix.close()

    def test_gather_into_caches_only_shared_edge_blocks(self, v2_dir, data):
        # 400-row shards of 128-row blocks: [0,128) [128,256) [256,384) [384,400).
        matrix = open_sharded_matrix(v2_dir)
        cache = matrix.block_cache
        out = np.empty((272, 10), dtype=np.float64)
        # Whole-block ranges decode straight into the buffer.
        np.testing.assert_array_equal(matrix.gather_into(128, 400, out), data[128:400])
        assert (cache.nbytes, cache.misses, cache.hits) == (0, 0, 0)
        # Two consecutive ranges share block [256,384): the first decodes it
        # into the cache, the second slices it from there.
        np.testing.assert_array_equal(matrix.gather_into(128, 300, out), data[128:300])
        assert (cache.misses, cache.hits) == (1, 0)
        np.testing.assert_array_equal(matrix.gather_into(300, 400, out), data[300:400])
        assert (cache.misses, cache.hits) == (1, 1)
        # A range straddling the shard edge: its two edge blocks, one per shard.
        np.testing.assert_array_equal(matrix.gather_into(350, 550, out), data[350:550])
        assert (cache.misses, cache.hits) == (2, 2)
        matrix.close()

    def test_fetch_then_decode_split(self, v2_dir, data):
        matrix = open_sharded_matrix(v2_dir)
        fetched = matrix.fetch_compressed(100, 300)
        assert fetched.compressed_bytes > 0
        out = np.empty((200, 10), dtype=np.float64)
        matrix.decode_into(fetched, out)
        np.testing.assert_array_equal(out, data[100:300])
        matrix.close()



class TestRangeReads:
    """``matrix[lo:hi]`` on decoded shards: one decode per overlapped block,
    whole blocks straight into the result, only partial edge blocks cached."""

    @pytest.mark.parametrize("storage_dtype", [None, np.float32])
    def test_each_block_decodes_once_and_only_edges_are_cached(
        self, tmp_path, data, labels, monkeypatch, storage_dtype
    ):
        # 400-row shards of 128-row blocks: [0,128) [128,256) [256,384) [384,400).
        write_sharded_dataset(tmp_path / "ds", data, labels, shard_rows=400,
                              codec="zlib", block_rows=128,
                              storage_dtype=storage_dtype)
        decodes = Counter()
        real = BlockedMatrixReader.decode_block_into

        def counting(reader, fetched, *args, **kwargs):
            decodes[(reader.path.name[6:11], fetched.index)] += 1
            return real(reader, fetched, *args, **kwargs)

        monkeypatch.setattr(BlockedMatrixReader, "decode_block_into", counting)
        edge_bytes = 128 * 10 * 8  # a cached block is in the logical dtype
        with open_sharded_matrix(tmp_path / "ds") as matrix:
            assert not matrix.mapped
            cache = matrix.block_cache
            # Blocks the range covers whole never touch the cache.
            np.testing.assert_array_equal(matrix[128:400], data[128:400])
            assert decodes == {("00000", 1): 1, ("00000", 2): 1, ("00000", 3): 1}
            assert (cache.nbytes, cache.misses, cache.hits) == (0, 0, 0)
            # Across the shard edge: a partial block at each end is cached.
            decodes.clear()
            np.testing.assert_array_equal(matrix[300:600], data[300:600])
            assert decodes == {("00000", 2): 1, ("00000", 3): 1,
                               ("00001", 0): 1, ("00001", 1): 1}
            assert (cache.nbytes, cache.misses, cache.hits) == (2 * edge_bytes, 2, 0)
            # The next range starts in the block the last one ended in: it is
            # sliced from the cache, not decoded again.
            decodes.clear()
            np.testing.assert_array_equal(matrix[600:700], data[600:700])
            assert decodes == {("00001", 2): 1}
            assert (cache.nbytes, cache.misses, cache.hits) == (3 * edge_bytes, 3, 1)
            # A range inside one block is an edge block at both ends.
            decodes.clear()
            np.testing.assert_array_equal(matrix[1000:1010], data[1000:1010])
            assert decodes == {("00002", 1): 1}
            assert (cache.misses, cache.hits) == (4, 1)
            assert matrix[1100:1200].shape == (0, 10)


class TestManifestVersioning:
    def test_unknown_version_rejected_as_newer_repro(self, tmp_path, v2_dir):
        payload = json.loads((v2_dir / "manifest.json").read_text())
        payload["version"] = 7
        with pytest.raises(ValueError, match="newer repro"):
            ShardManifest.from_json(payload)

    def test_unknown_version_names_supported_versions(self, v2_dir):
        payload = json.loads((v2_dir / "manifest.json").read_text())
        payload["version"] = 7
        with pytest.raises(ValueError, match=r"1.*2|versions"):
            ShardManifest.from_json(payload)

    def test_v2_manifest_requires_codec(self, v2_dir):
        payload = json.loads((v2_dir / "manifest.json").read_text())
        del payload["codec"]
        with pytest.raises(ValueError, match="codec"):
            ShardManifest.from_json(payload)

    @pytest.mark.parametrize(
        "into, donor", [("zlib", "none"), ("none", "zlib")],
        ids=["none-into-zlib", "zlib-into-none"],
    )
    def test_mismatched_shard_header_rejected(self, tmp_path, data, labels, into, donor):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_sharded_dataset(a, data, labels, shard_rows=400,
                              codec=into, block_rows=128)
        write_sharded_dataset(b, data, labels, shard_rows=400,
                              codec=donor, block_rows=128)
        # Swap one shard file between codecs: the manifest promises one codec
        # but the shard header says the other.  Open and verify both refuse.
        shard = "shard-00001.m3b"
        (a / shard).write_bytes((b / shard).read_bytes())
        with pytest.raises(ValueError, match=shard):
            open_sharded_matrix(a)
        problems = verify_dataset(a)
        assert len(problems) == 1 and "manifest declares" in problems[0]

    @pytest.mark.parametrize("codec", [None, "zlib"], ids=["raw", "zlib"])
    def test_short_shard_over_a_sealed_one_rejected(self, tmp_path, data, labels, codec):
        # Shards of 400, 400 and 300 rows: the last one copied over the first
        # is a well-formed file holding too few rows.  Open and verify both
        # refuse it.
        write_sharded_dataset(tmp_path, data, labels, shard_rows=400,
                              codec=codec, block_rows=128)
        shutil.copyfile(tmp_path / "shard-00002.m3b", tmp_path / "shard-00000.m3b")
        with pytest.raises(ValueError, match="holds a 300 x 10"):
            open_sharded_matrix(tmp_path)
        problems = verify_dataset(tmp_path)
        assert len(problems) == 1 and "shard-00000.m3b" in problems[0]
        assert "holds a 300 x 10" in problems[0] and "expects 400 x 10" in problems[0]

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("shard", ["shard-00001.m3b", "shard-00002.m3b"],
                             ids=["sealed", "tail"])
    def test_shard_without_the_manifests_labels_rejected(self, tmp_path, data, labels,
                                                         codec, shard):
        # A labelled dataset (two sealed shards and an appended tail) whose
        # shard is rewritten with its own rows and no label segment: every
        # opener refuses it, where reading it would hand out the file's first
        # bytes as labels.
        write_sharded_dataset(tmp_path, data[:800], labels[:800], shard_rows=400,
                              codec=codec, block_rows=128)
        ShardAppender(tmp_path).append(data[800:], labels[800:])
        index = int(shard[6:11])
        write_blocked_matrix(tmp_path / shard, data[400 * index : 400 * (index + 1)],
                             None, block_rows=128, codec=codec)
        with pytest.raises(ValueError, match=f"{shard} lacks a label segment"):
            open_sharded_matrix(tmp_path)
        problems = verify_dataset(tmp_path)
        assert len(problems) == 1 and f"{shard} lacks a label segment" in problems[0]
        if shard == "shard-00002.m3b":
            with pytest.raises(RuntimeError, match="lacks a label segment"):
                ShardAppender(tmp_path)

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_labelled_shard_in_an_unlabelled_dataset_rejected(self, tmp_path, data,
                                                              labels, codec):
        write_sharded_dataset(tmp_path, data, None, shard_rows=400,
                              codec=codec, block_rows=128)
        write_blocked_matrix(tmp_path / "shard-00000.m3b", data[:400], labels[:400],
                             block_rows=128, codec=codec)
        with pytest.raises(ValueError, match="has a label segment"):
            open_sharded_matrix(tmp_path)
        assert "has a label segment" in verify_dataset(tmp_path)[0]
