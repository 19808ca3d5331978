"""Block CRCs catch corruption in every codec and in the legacy column
layout; trailer CRC catches torn converts; a file whose checksums are missing
or zeroed is refused, never read unverified.  The scrub (`verify_blocked_file`
/ `m3 info --verify`) names the exact block, and a clean file scrubs clean."""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.sharded import verify_dataset
from repro.cli import main
from repro.data.formats_v2 import (
    BLOCKED_PREFIX,
    BLOCKED_PREFIX_SIZE,
    BlockedMatrixReader,
    ChecksumError,
    read_blocked_header,
    verify_blocked_file,
    write_blocked_matrix,
)
from repro.faults import InjectedFault, set_fault_plan

#: A zlib column-layout shard (two blocks, five segments each, labels):
#: nothing writes that layout any more, so its cases run on a copy of it.
COLUMN_FIXTURE = (
    Path(__file__).parents[1] / "data" / "fixtures" / "column_layout_shards"
    / "shard-00000.m3b"
)
SOURCES = ("row-zlib", "row-none", "column-zlib")


def _write(path, codec, rows=96, cols=6, block_rows=32):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(rows, cols)).astype(np.float32)
    y = rng.integers(0, 2, size=rows).astype(np.float64)
    write_blocked_matrix(path, X, labels=y, block_rows=block_rows, codec=codec)
    return X, y


def _sample(path, source):
    """A file of ``source``'s layout and codec at ``path``."""
    layout, codec = source.split("-")
    if layout == "column":
        shutil.copyfile(COLUMN_FIXTURE, path)
    else:
        _write(path, codec)


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("source", SOURCES)
class TestCorruptionMatrix:
    def test_clean_file_scrubs_clean(self, tmp_path, source):
        path = tmp_path / "clean.m3b"
        _sample(path, source)
        assert verify_blocked_file(path) == []

    def test_flipped_payload_byte_is_detected(self, tmp_path, source):
        path = tmp_path / "corrupt.m3b"
        _sample(path, source)
        header = read_blocked_header(path)
        offset, coded, _raw, crc = header.blocks[1].segments[0]
        assert crc is not None  # freshly written files always carry CRCs
        _flip_byte(path, offset + coded // 2)

        problems = verify_blocked_file(path)
        assert len(problems) == 1
        assert "block 1" in problems[0] and "CRC mismatch" in problems[0]
        assert str(path) in problems[0]

        # The read path refuses the corrupt block with the same diagnosis…
        with BlockedMatrixReader(path) as reader:
            with pytest.raises(ChecksumError, match="block 1 .*CRC mismatch"):
                fetched = reader.fetch_block(1)
                reader._decode_segment(
                    fetched.payloads[0], header.blocks[1].segments[0], 1, 0
                )
            # …while unaffected blocks still decode.
            reader.fetch_block(0)

    def test_corrupt_label_segment_is_detected(self, tmp_path, source):
        path = tmp_path / "labels.m3b"
        _sample(path, source)
        header = read_blocked_header(path)
        assert header.label_segment is not None
        offset, coded, _raw, _crc = header.label_segment
        _flip_byte(path, offset + coded // 2)
        problems = verify_blocked_file(path)
        assert len(problems) == 1
        assert "labels" in problems[0]


class TestTrailerCRC:
    def test_flipped_trailer_byte_refuses_open(self, tmp_path):
        path = tmp_path / "trailer.m3b"
        _write(path, "zlib")
        # The JSON trailer occupies the file's tail; hit it near the end.
        _flip_byte(path, path.stat().st_size - 8)
        with pytest.raises(ChecksumError, match="trailer CRC mismatch"):
            read_blocked_header(path)
        problems = verify_blocked_file(path)
        assert len(problems) == 1 and "unreadable" in problems[0]

    def test_torn_convert_detected_at_open(self, tmp_path):
        """Regression: a crash mid-trailer-write must not yield an openable
        file.  The ``write.trailer`` fault lands exactly that state on disk —
        half the JSON header, zero padding, but a fully committed prefix."""
        path = tmp_path / "torn.m3b"
        rng = np.random.default_rng(3)
        X = rng.normal(size=(64, 4)).astype(np.float32)
        set_fault_plan("write.trailer")
        with pytest.raises(InjectedFault):
            write_blocked_matrix(path, X, block_rows=16)
        set_fault_plan(None)

        assert path.exists()  # the torn file really landed
        with pytest.raises(ChecksumError, match="torn mid-convert|trailer CRC"):
            read_blocked_header(path)
        problems = verify_blocked_file(path)
        assert len(problems) == 1 and "unreadable" in problems[0]

    def test_zeroed_trailer_crc_is_refused(self, tmp_path):
        """A prefix whose trailer CRC is 0 is checked like any other: every
        writer stores the real CRC, so a zero one no longer switches
        trailer verification off."""
        path = tmp_path / "zeroed.m3b"
        _write(path, "none")
        data = bytearray(path.read_bytes())
        data[12:16] = b"\x00\x00\x00\x00"  # zero the stored trailer CRC
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match="trailer CRC mismatch"):
            read_blocked_header(path)
        problems = verify_blocked_file(path)
        assert len(problems) == 1 and "unreadable" in problems[0]


def _rewrite_trailer(path, edit):
    """Apply ``edit`` to the JSON header trailer of ``path`` and store it with
    a matching trailer CRC, so only the edited entries can be at fault."""
    raw = path.read_bytes()
    magic, version, _crc, offset, length = BLOCKED_PREFIX.unpack(raw[:BLOCKED_PREFIX_SIZE])
    header = json.loads(raw[offset : offset + length])
    edit(header)
    trailer = json.dumps(header).encode("utf-8")
    prefix = BLOCKED_PREFIX.pack(magic, version, zlib.crc32(trailer), offset, len(trailer))
    path.write_bytes(prefix + raw[BLOCKED_PREFIX_SIZE:offset] + trailer)


@pytest.mark.parametrize("entry", ["block", "labels"])
@pytest.mark.parametrize("crc", ["removed", "null"])
def test_segment_entry_without_crc_is_refused(tmp_path, entry, crc):
    """A segment entry that carries no CRC cannot be verified, so the file
    is refused at open and the scrub reports it instead of passing it."""
    path = tmp_path / "crcless.m3b"
    _write(path, "zlib")

    def strip(header):
        segment = header["blocks"][1]["segments"][0] if entry == "block" else header["labels"]
        if crc == "removed":
            segment.pop()
        else:
            segment[3] = None

    _rewrite_trailer(path, strip)
    where = "block 1 segment 0" if entry == "block" else "label segment"
    with pytest.raises(ChecksumError, match=f"{where} carries no CRC"):
        read_blocked_header(path)
    with pytest.raises(ChecksumError, match="carries no CRC"):
        BlockedMatrixReader(path)
    problems = verify_blocked_file(path)
    assert len(problems) == 1 and "carries no CRC" in problems[0]
    assert str(path) in problems[0]


class TestCliVerify:
    def test_verify_ok_then_detects_corruption(self, tmp_path, capsys):
        dataset = tmp_path / "ds"
        base = tmp_path / "base.m3"
        rng = np.random.default_rng(11)
        X = rng.normal(size=(64, 8)).astype(np.float32)
        y = rng.integers(0, 2, size=64).astype(np.float64)
        with Session() as session:
            session.create(f"mmap://{base}", X, y)
        from repro.api.convert import convert_dataset

        convert_dataset(str(base), dataset, codec="zlib", block_rows=16, shard_rows=32)

        assert main(["info", str(dataset), "--verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

        shard = sorted(dataset.glob("*.m3b"))[0]
        header = read_blocked_header(shard)
        offset, coded, _raw, _crc = header.blocks[0].segments[0]
        _flip_byte(shard, offset + coded // 2)

        assert main(["info", str(dataset), "--verify"]) == 1
        err = capsys.readouterr().err
        assert "CRC mismatch" in err and "FAILED" in err


class TestMmapDatasetScrub:
    """``mmap://`` is one raw v2 shard: its mapped reads skip the CRCs, the
    scrub checks every one of them."""

    def test_a_flipped_data_byte_is_reported(self, tmp_path, capsys):
        X = np.arange(40, dtype=np.float64).reshape(10, 4)
        X[1, 1] = 5.0
        path = tmp_path / "d.m3"
        with Session() as session:
            session.create(f"mmap://{path}", X, np.arange(10) % 2)
        assert verify_dataset(path) == []
        assert main(["info", str(path), "--verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

        shard = path / "shard-00000.m3b"
        data_offset = read_blocked_header(shard).blocks[0].segments[0][0]
        # The top byte of X[1, 1]: sign and exponent, so 5.0 reads as junk.
        _flip_byte(shard, data_offset + (1 * 4 + 1) * 8 + 7)
        with Session() as session, session.open(f"mmap://{path}") as dataset:
            assert dataset[1, 1] != 5.0  # a mapped read is a page fault, unchecked

        problems = verify_dataset(path)
        assert len(problems) == 1
        assert str(shard) in problems[0] and "block 0 segment 0 CRC mismatch" in problems[0]
        assert main(["info", str(path), "--verify"]) == 1
        err = capsys.readouterr().err
        assert "block 0 segment 0 CRC mismatch" in err and "FAILED" in err
