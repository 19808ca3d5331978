"""Tests for mmap_alloc."""

import numpy as np
import pytest

from repro.core.allocator import mmap_alloc


class TestMmapAlloc:
    def test_creates_file_of_right_size(self, tmp_path):
        path = tmp_path / "alloc.bin"
        array = mmap_alloc(path, (10, 4), dtype=np.float64, mode="w+")
        assert array.shape == (10, 4)
        assert path.stat().st_size == 10 * 4 * 8

    def test_written_values_persist(self, tmp_path):
        path = tmp_path / "persist.bin"
        array = mmap_alloc(path, (5, 3), mode="w+")
        array[:] = 7.0
        array.flush()
        reopened = mmap_alloc(path, (5, 3), mode="r")
        assert np.all(np.asarray(reopened) == 7.0)

    def test_scalar_shape_accepted(self, tmp_path):
        array = mmap_alloc(tmp_path / "vector.bin", 16, mode="w+")
        assert array.shape == (16,)

    def test_grows_existing_file(self, tmp_path):
        path = tmp_path / "grow.bin"
        mmap_alloc(path, (2, 2), mode="w+")
        bigger = mmap_alloc(path, (8, 2), mode="r+")
        assert bigger.shape == (8, 2)
        assert path.stat().st_size == 8 * 2 * 8

    def test_readonly_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mmap_alloc(tmp_path / "missing.bin", (2, 2), mode="r")

    def test_readonly_too_small_file_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\0" * 8)
        with pytest.raises(ValueError):
            mmap_alloc(path, (100, 100), mode="r")

    def test_offset_maps_past_header(self, tmp_path):
        path = tmp_path / "offset.bin"
        payload = np.arange(6, dtype=np.float64)
        path.write_bytes(b"\0" * 64 + payload.tobytes())
        array = mmap_alloc(path, (2, 3), mode="r", offset=64)
        np.testing.assert_array_equal(np.asarray(array).reshape(-1), payload)

    def test_invalid_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            mmap_alloc(tmp_path / "bad.bin", (0, 3), mode="w+")
        with pytest.raises(ValueError):
            mmap_alloc(tmp_path / "bad.bin", (), mode="w+")

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            mmap_alloc(tmp_path / "bad.bin", (2, 2), mode="w+", offset=-1)

    def test_returns_memmap_instance(self, tmp_path):
        array = mmap_alloc(tmp_path / "type.bin", (3, 3), mode="w+")
        assert isinstance(array, np.memmap)
