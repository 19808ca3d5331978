"""Tests for the blocked (v2) matrix format."""

from pathlib import Path

import numpy as np
import pytest

from repro.data.formats_v2 import (
    BLOCKED_MAGIC,
    BLOCKED_PREFIX_SIZE,
    RAW_DATA_OFFSET,
    BlockedMatrixReader,
    BlockedMatrixWriter,
    default_block_rows,
    read_blocked_header,
    write_blocked_matrix,
)


@pytest.fixture()
def matrix(rng):
    # Small-integer features compress well, which the ratio tests rely on.
    return rng.integers(0, 8, size=(257, 12)).astype(np.float64)


@pytest.fixture()
def labels(rng):
    return rng.integers(0, 5, size=257).astype(np.int64)


class TestWriter:
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_round_trip(self, tmp_path, matrix, labels, codec):
        path = tmp_path / "blocked.m3b"
        header = write_blocked_matrix(path, matrix, labels, block_rows=64, codec=codec)
        assert header.rows == 257 and header.cols == 12
        assert header.codec == codec and header.layout == "row"
        # 257 rows over 64-row blocks -> 4 full blocks + a 1-row tail.
        assert len(header.blocks) == 5
        assert header.blocks[-1].rows == 1
        with BlockedMatrixReader(path) as reader:
            np.testing.assert_array_equal(reader.read_rows(0, 257), matrix)
            np.testing.assert_array_equal(reader.read_labels(), labels)

    def test_streaming_append_matches_one_shot(self, tmp_path, matrix, labels):
        one = tmp_path / "one.m3b"
        write_blocked_matrix(one, matrix, labels, block_rows=50, codec="zlib")
        streamed = tmp_path / "streamed.m3b"
        with BlockedMatrixWriter(streamed, cols=12, block_rows=50, codec="zlib") as w:
            for lo in range(0, 257, 37):  # deliberately misaligned bands
                hi = min(lo + 37, 257)
                w.append(matrix[lo:hi])
                w.append_labels(labels[lo:hi])
            w.finalize()
        assert one.read_bytes() == streamed.read_bytes()

    def test_float32_storage_downcast(self, tmp_path, rng):
        data = rng.standard_normal((100, 6))
        path = tmp_path / "f32.m3b"
        header = write_blocked_matrix(
            path, data, None, block_rows=32, codec="zlib", storage_dtype=np.float32
        )
        assert header.storage_dtype == np.dtype(np.float32)
        assert header.dtype == np.dtype(np.float64)
        with BlockedMatrixReader(path) as reader:
            out = reader.read_rows(0, 100)
            assert out.dtype == np.float64  # logical dtype on the way out
            np.testing.assert_allclose(out, data, atol=1e-6)

    def test_compression_accounting(self, tmp_path, matrix):
        path = tmp_path / "acct.m3b"
        header = write_blocked_matrix(path, matrix, None, block_rows=64, codec="zlib")
        assert header.raw_bytes == matrix.nbytes
        assert 0 < header.compressed_bytes < header.raw_bytes
        assert header.ratio > 1.0
        assert header.compressed_bytes == sum(
            b.coded_bytes for b in header.blocks
        )

    @pytest.mark.parametrize("codec, first", [("none", 64), ("zlib", BLOCKED_PREFIX_SIZE)])
    def test_raw_rows_start_on_a_cache_line(self, tmp_path, matrix, codec, first):
        # A none file's rows are what a memory map serves: they start at
        # RAW_DATA_OFFSET, 64-byte aligned, as the v1 file's did behind its
        # 64-byte header.  Coded segments follow the prefix directly.
        path = tmp_path / f"{codec}.m3b"
        header = write_blocked_matrix(path, matrix, None, block_rows=64, codec=codec)
        assert header.blocks[0].segments[0][0] == first
        assert RAW_DATA_OFFSET == 64
        if codec == "none":
            assert path.read_bytes()[BLOCKED_PREFIX_SIZE:first] == bytes(first - BLOCKED_PREFIX_SIZE)
            mapped = np.memmap(path, dtype=np.float64, mode="r", offset=first, shape=matrix.shape)
            assert mapped.ctypes.data % 64 == 0
            np.testing.assert_array_equal(mapped, matrix)


class TestReader:
    def test_partial_range_and_fancy_reads(self, tmp_path, matrix, labels):
        path = tmp_path / "partial.m3b"
        write_blocked_matrix(path, matrix, labels, block_rows=64, codec="zlib")
        with BlockedMatrixReader(path) as reader:
            np.testing.assert_array_equal(reader.read_rows(60, 70), matrix[60:70])
            np.testing.assert_array_equal(reader.read_rows(250, 257), matrix[250:257])

    def test_column_layout_written_before_the_projection_was_removed(self, tmp_path):
        # fixtures/column_layout_shards was written at fe24373, when readers
        # could still fetch single column segments.  Column-major stays a
        # stored form that nothing writes any more: the block reader still
        # decodes whole blocks bit-identically (for m3 convert), while the
        # sharded opener refuses the dataset and names the convert.
        from repro.api.sharded import LegacyFormatError, open_sharded_matrix

        fixture = Path(__file__).parent / "fixtures" / "column_layout_shards"
        X = (np.arange(40 * 5, dtype=np.float64).reshape(40, 5) % 7) / 4.0
        y = (np.arange(40) % 3).astype(np.int64)
        with BlockedMatrixReader(fixture / "shard-00000.m3b") as reader:
            assert reader.header.layout == "column"
            assert len(reader.header.blocks[0].segments) == 5
            np.testing.assert_array_equal(reader.read_rows(0, 24), X[:24])
            np.testing.assert_array_equal(reader.read_rows(13, 19), X[13:19])
            np.testing.assert_array_equal(reader.read_labels(), y[:24])
        with pytest.raises(LegacyFormatError, match="column-layout.*m3 convert"):
            open_sharded_matrix(fixture)

    def test_column_blocks_are_not_copied_verbatim(self):
        # Only row-layout blocks are ever re-placed by a writer (the appender
        # refuses column-layout datasets before it gets here).
        fixture = Path(__file__).parent / "fixtures" / "column_layout_shards"
        with BlockedMatrixReader(fixture / "shard-00000.m3b") as reader:
            with pytest.raises(ValueError, match="row-layout"):
                reader.fetch_coded_block(0)

    def test_row_writer_reproduces_its_fixture_byte_for_byte(self, tmp_path):
        # fixtures/row_layout_shards was written at 9b4edb4, before the writers
        # lost their layout= option: the same 40 x 5 matrix as the column
        # fixture, zlib, 16-row blocks, 24-row shards.  Today's writer must
        # still produce exactly those files, manifest included.
        from repro.api.sharded import write_sharded_dataset

        fixture = Path(__file__).parent / "fixtures" / "row_layout_shards"
        X = (np.arange(40 * 5, dtype=np.float64).reshape(40, 5) % 7) / 4.0
        y = (np.arange(40) % 3).astype(np.int64)
        write_sharded_dataset(tmp_path / "again", X, y, shard_rows=24, codec="zlib",
                              block_rows=16)
        names = sorted(path.name for path in fixture.iterdir())
        assert names == ["manifest.json", "shard-00000.m3b", "shard-00001.m3b"]
        assert sorted(path.name for path in (tmp_path / "again").iterdir()) == names
        for name in names:
            assert (tmp_path / "again" / name).read_bytes() == (fixture / name).read_bytes()

    def test_decode_block_into_offset(self, tmp_path, matrix):
        path = tmp_path / "into.m3b"
        write_blocked_matrix(path, matrix, None, block_rows=64, codec="zlib")
        with BlockedMatrixReader(path) as reader:
            out = np.zeros((20, 12), dtype=np.float64)
            fetched = reader.fetch_block(1)  # rows 64..128
            reader.decode_block_into(fetched, 70, 80, out, out_offset=5)
            np.testing.assert_array_equal(out[5:15], matrix[70:80])
            assert not out[:5].any() and not out[15:].any()


class TestHeaderValidation:
    def test_default_block_rows_targets_a_megabyte(self):
        assert default_block_rows(128, 8) == (1024 * 1024) // (128 * 8)
        assert default_block_rows(10**9, 8) == 1  # never zero

    def test_bad_magic_reports_expected_and_found(self, tmp_path):
        path = tmp_path / "junk.m3b"
        path.write_bytes(b"NOTBLOCK" + b"\0" * 64)
        with pytest.raises(ValueError) as err:
            read_blocked_header(path)
        message = str(err.value)
        assert str(path) in message
        assert repr(BLOCKED_MAGIC) in message and "NOTBLOCK" in message

    def test_too_small_file_reports_sizes(self, tmp_path):
        path = tmp_path / "tiny.m3b"
        path.write_bytes(b"\0" * 7)
        with pytest.raises(ValueError, match=str(BLOCKED_PREFIX_SIZE)):
            read_blocked_header(path)

    def test_future_version_rejected(self, tmp_path, matrix):
        path = tmp_path / "future.m3b"
        write_blocked_matrix(path, matrix, None, block_rows=64, codec="zlib")
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")  # version field after magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="99"):
            read_blocked_header(path)

    def test_truncated_trailer_rejected(self, tmp_path, matrix):
        path = tmp_path / "trunc.m3b"
        write_blocked_matrix(path, matrix, None, block_rows=64, codec="zlib")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError, match="truncated"):
            read_blocked_header(path)

    def test_v1_reader_names_the_v2_entry_point(self, tmp_path, matrix):
        from repro.data.formats import read_binary_matrix_header

        path = tmp_path / "blocked.m3b"
        write_blocked_matrix(path, matrix, None, block_rows=64, codec="zlib")
        with pytest.raises(ValueError, match="formats_v2"):
            read_binary_matrix_header(path)
