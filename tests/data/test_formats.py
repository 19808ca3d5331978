"""The legacy v1 M3 matrix file: read only, by ``m3 convert``.

Nothing in the package writes the form any more; the ``write_v1`` fixture
writes its bytes, pinned here against a file an older build wrote.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.data.formats import (
    HEADER_SIZE,
    open_binary_matrix,
    read_binary_matrix_header,
)

#: A labelled 7 x 3 v1 file an older build wrote (the first shard of a v1
#: shard directory: rows ``(arange(21) % 11) / 4``, labels ``arange(7) % 3``).
FIXTURE = Path(__file__).parent / "fixtures" / "v1_shards" / "static" / "shard-00000.m3"


class TestRead:
    def test_the_writer_fixture_writes_what_older_builds_wrote(self, tmp_path, write_v1):
        X = (np.arange(21, dtype=np.float64).reshape(7, 3) % 11) / 4.0
        path = write_v1(tmp_path / "again.m3", X, np.arange(7) % 3)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_roundtrip_without_labels(self, tmp_path, write_v1):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        path = write_v1(tmp_path / "matrix.m3", data)
        mapped, labels, header = open_binary_matrix(path)
        assert header.rows == 3 and header.cols == 4
        assert header.has_labels is False
        np.testing.assert_array_equal(np.asarray(mapped), data)
        assert labels is None

    def test_roundtrip_with_labels(self, tmp_path, write_v1):
        data = np.random.default_rng(0).normal(size=(10, 5))
        labels = np.arange(10) % 3
        path = write_v1(tmp_path / "labelled.m3", data, labels)
        mapped, mapped_labels, header = open_binary_matrix(path)
        np.testing.assert_allclose(np.asarray(mapped), data)
        np.testing.assert_array_equal(np.asarray(mapped_labels), labels)
        assert header.has_labels is True

    def test_file_size_matches_header(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "f32.m3", np.zeros((7, 3), dtype=np.float32))
        header = read_binary_matrix_header(path)
        assert path.stat().st_size == header.file_bytes
        assert header.dtype == np.dtype(np.float32)

    def test_open_maps_read_only(self):
        mapped, labels, _ = open_binary_matrix(FIXTURE)
        assert isinstance(mapped, np.memmap) and isinstance(labels, np.memmap)
        with pytest.raises(ValueError):
            mapped[0, 0] = 99.0


class TestHeaderValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_m3.bin"
        path.write_bytes(b"GARBAGE!" + b"\0" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_binary_matrix_header(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"\0" * 8)
        with pytest.raises(ValueError):
            read_binary_matrix_header(path)

    def test_label_offset(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "labelled.m3", np.zeros((5, 2)), np.zeros(5))
        header = read_binary_matrix_header(path)
        assert header.label_offset == HEADER_SIZE + 5 * 2 * 8

    def test_truncated_data_section_rejected(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "truncated.m3", np.ones((20, 6)))
        full = path.read_bytes()
        path.write_bytes(full[: len(full) - 17])
        with pytest.raises(ValueError, match="truncated"):
            read_binary_matrix_header(path)
        with pytest.raises(ValueError, match="truncated"):
            open_binary_matrix(path)

    def test_truncated_label_section_rejected(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "truncated_labels.m3", np.ones((8, 4)), np.arange(8))
        full = path.read_bytes()
        # Keep the full data section but cut the trailing label vector short.
        path.write_bytes(full[: len(full) - 8])
        with pytest.raises(ValueError, match="truncated"):
            read_binary_matrix_header(path)

    def test_header_only_file_rejected(self, tmp_path, write_v1):
        path = write_v1(tmp_path / "header_only.m3", np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:HEADER_SIZE])
        with pytest.raises(ValueError, match="truncated"):
            read_binary_matrix_header(path)

    def test_oversized_file_accepted(self, tmp_path, write_v1):
        # Trailing junk beyond the declared size is tolerated (e.g. files on
        # filesystems that round up allocations).
        path = write_v1(tmp_path / "padded.m3", np.ones((3, 3)))
        with path.open("ab") as handle:
            handle.write(b"\0" * 32)
        header = read_binary_matrix_header(path)
        assert header.rows == 3
