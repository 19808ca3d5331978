"""Tests for spec parsing and the storage backends."""

import numpy as np
import pytest

from repro.api import (
    BACKEND_REGISTRY,
    MemoryBackend,
    MmapBackend,
    ShardedBackend,
    make_backend,
    parse_spec,
)
from repro.api.sharded import LegacyFormatError, ShardedMatrix


class TestParseSpec:
    def test_explicit_schemes(self):
        assert parse_spec("mmap:///data/x.m3").scheme == "mmap"
        assert parse_spec("mmap:///data/x.m3").location == "/data/x.m3"
        assert parse_spec("shard:///data/xs/").scheme == "shard"
        assert parse_spec("memory://train").location == "train"

    def test_plain_path_infers_mmap(self, tmp_path):
        spec = parse_spec(str(tmp_path / "x.m3"))
        assert spec.scheme == "mmap"

    def test_directory_infers_shard(self, tmp_path):
        assert parse_spec(str(tmp_path)).scheme == "shard"
        assert parse_spec(str(tmp_path / "new_dir") + "/").scheme == "shard"

    def test_path_object_accepted(self, tmp_path):
        spec = parse_spec(tmp_path / "x.m3")
        assert spec.scheme == "mmap"
        assert spec.location.endswith("x.m3")

    def test_file_scheme_resolves_by_filesystem(self, tmp_path):
        assert parse_spec(f"file://{tmp_path}").scheme == "shard"
        assert parse_spec(f"file://{tmp_path}/x.m3").scheme == "mmap"

    def test_str_of_spec_roundtrips(self):
        spec = parse_spec("mmap://x.m3")
        assert str(spec) == "mmap://x.m3"
        assert parse_spec(spec) is spec

    def test_empty_location_rejected(self):
        with pytest.raises(ValueError, match="empty location"):
            parse_spec("mmap://")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_spec(42)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKEND_REGISTRY) >= {"memory", "mmap", "shard"}
        assert isinstance(make_backend("mmap"), MmapBackend)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_backend("s3")

    def test_unknown_scheme_names_the_known_ones(self):
        with pytest.raises(
            ValueError,
            match=r"^unknown storage backend scheme 'nope' \(known: memory, mmap, shard\)$",
        ):
            make_backend("nope")

    @pytest.mark.parametrize("scheme", ["memory", "mmap", "shard"])
    def test_each_scheme_builds_a_fresh_backend(self, scheme):
        backend = make_backend(scheme)
        assert type(backend) is BACKEND_REGISTRY[scheme]
        assert backend.scheme == scheme
        assert make_backend(scheme) is not backend


class TestMemoryBackend:
    def test_create_open_roundtrip(self):
        backend = MemoryBackend()
        X = np.arange(6.0).reshape(3, 2)
        backend.create("train", X, np.array([0, 1, 0]))
        handle = backend.open("train")
        np.testing.assert_array_equal(handle.matrix, X)
        np.testing.assert_array_equal(handle.labels, [0, 1, 0])
        assert handle.metadata["backend"] == "memory"

    def test_missing_name_raises(self):
        with pytest.raises(KeyError, match="no in-memory dataset"):
            MemoryBackend().open("nope")

    def test_stores_are_instance_scoped(self):
        a, b = MemoryBackend(), MemoryBackend()
        a.create("x", np.zeros((2, 2)))
        assert a.exists("x")
        assert not b.exists("x")

    def test_validation(self):
        backend = MemoryBackend()
        with pytest.raises(ValueError, match="2-D"):
            backend.create("bad", np.zeros(3))
        with pytest.raises(ValueError, match="labels"):
            backend.create("bad", np.zeros((3, 2)), np.zeros(2))

    def test_unknown_options_rejected_everywhere(self, tmp_path):
        # Every backend fails loudly on options it does not understand (e.g.
        # shard_rows left behind after switching a spec from shard:// to
        # mmap://) instead of silently ignoring them.
        with pytest.raises(TypeError, match="unexpected options"):
            MemoryBackend().create("x", np.zeros((4, 2)), shard_rows=2)
        with pytest.raises(TypeError, match="unexpected options"):
            MmapBackend().create(str(tmp_path / "x.m3"), np.zeros((4, 2)), shard_rows=2)


class TestMmapBackend:
    def test_create_open_roundtrip(self, tmp_path):
        backend = MmapBackend()
        X = np.random.default_rng(0).normal(size=(5, 4))
        location = str(tmp_path / "data.m3")
        backend.create(location, X, np.arange(5))
        handle = backend.open(location)
        # One raw shard, mapped zero-copy: the shard backend's open.
        assert isinstance(handle.matrix, ShardedMatrix)
        assert handle.matrix.mapped and handle.matrix.num_shards == 1
        assert isinstance(handle.matrix[0:5], np.memmap)
        np.testing.assert_array_equal(np.asarray(handle.matrix), X)
        assert handle.metadata["rows"] == 5 and handle.metadata["backend"] == "mmap"
        assert handle.metadata["codec"] == "none"
        handle.closer()

    def test_is_the_shard_backend_but_for_create(self):
        assert issubclass(MmapBackend, ShardedBackend)
        own = {name for name in vars(MmapBackend) if not name.startswith("_")}
        assert own == {"scheme", "create"}

    def test_create_takes_no_option(self, tmp_path):
        for option in ("shard_rows", "codec"):
            with pytest.raises(TypeError, match=option):
                MmapBackend().create(str(tmp_path / "x.m3"), np.zeros((4, 2)), **{option: 2})

    def test_an_empty_matrix_is_one_empty_shard(self, tmp_path):
        backend = MmapBackend()
        location = str(tmp_path / "empty.m3")
        backend.create(location, np.zeros((0, 3)))
        info = backend.info(location)
        assert (info["rows"], info["cols"], info["num_shards"]) == (0, 3, 1)

    def test_a_regular_file_is_refused_naming_m3_convert(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "old.m3", np.ones((3, 2)))
        for call in (MmapBackend().open, MmapBackend().info, ShardedBackend().open):
            with pytest.raises(LegacyFormatError, match=r"m3 convert SRC DST --codec raw\|zlib"):
                call(str(path))

    def test_info_and_exists(self, tmp_path):
        backend = MmapBackend()
        location = str(tmp_path / "info.m3")
        assert not backend.exists(location)
        backend.create(location, np.ones((2, 3)))
        assert backend.exists(location)
        info = backend.info(location)
        assert info["rows"] == 2 and info["cols"] == 3
        assert info["has_labels"] is False


class TestShardedBackend:
    def test_create_open_roundtrip(self, tmp_path):
        backend = ShardedBackend()
        X = np.random.default_rng(1).normal(size=(23, 3))
        y = np.arange(23) % 4
        location = str(tmp_path / "shards")
        backend.create(location, X, y, shard_rows=7)
        handle = backend.open(location)
        np.testing.assert_array_equal(np.asarray(handle.matrix), X)
        np.testing.assert_array_equal(np.asarray(handle.labels), y)
        assert handle.metadata["num_shards"] == 4
        assert handle.closer is not None
        handle.closer()

    def test_default_shard_count(self, tmp_path):
        backend = ShardedBackend()
        location = str(tmp_path / "auto")
        backend.create(location, np.zeros((100, 2)))
        assert backend.info(location)["num_shards"] == 4

    def test_unknown_option_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="unexpected options"):
            ShardedBackend().create(str(tmp_path / "x"), np.zeros((4, 2)), bogus=1)

    def test_exists(self, tmp_path):
        backend = ShardedBackend()
        location = str(tmp_path / "maybe")
        assert not backend.exists(location)
        backend.create(location, np.zeros((4, 2)))
        assert backend.exists(location)
