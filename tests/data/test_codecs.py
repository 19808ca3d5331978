"""Tests for the block codec registry."""

import numpy as np
import pytest

from repro.data import codecs
from repro.data.codecs import (
    CODEC_REGISTRY,
    Codec,
    CodecError,
    NoneCodec,
    ZlibCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.faults import InjectedFault, set_fault_plan


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert "none" in available_codecs()
        assert "zlib" in available_codecs()

    def test_get_codec_by_name(self):
        assert isinstance(get_codec("zlib"), ZlibCodec)
        assert isinstance(get_codec("none"), NoneCodec)

    def test_unknown_codec_rejected_with_choices(self):
        with pytest.raises(ValueError, match="zstd-9000"):
            get_codec("zstd-9000")
        with pytest.raises(ValueError, match="zlib"):
            get_codec("zstd-9000")

    def test_register_custom_codec(self):
        class ReverseCodec(Codec):
            name = "reverse-test"

            def encode(self, raw: bytes) -> bytes:
                return raw[::-1]

            def decode(self, coded: bytes, raw_size: int) -> bytes:
                raw = coded[::-1]
                self._check_size(raw, raw_size)
                return raw

        try:
            register_codec(ReverseCodec())
            codec = get_codec("reverse-test")
            assert codec.decode(codec.encode(b"abcdef"), 6) == b"abcdef"
        finally:
            CODEC_REGISTRY.pop("reverse-test", None)

    def test_nameless_codec_rejected(self):
        class Nameless(Codec):
            def encode(self, raw: bytes) -> bytes:  # pragma: no cover
                return raw

            def decode(self, coded: bytes, raw_size: int) -> bytes:  # pragma: no cover
                return coded

        with pytest.raises(ValueError, match="name"):
            register_codec(Nameless())


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["none", "zlib"])
    def test_bytes_round_trip(self, name):
        codec = get_codec(name)
        raw = bytes(range(256)) * 33
        assert codec.decode(codec.encode(raw), len(raw)) == raw

    @pytest.mark.parametrize("name", ["none", "zlib"])
    def test_decode_into_buffer(self, name):
        codec = get_codec(name)
        raw = np.arange(512, dtype=np.float64).tobytes()
        out = bytearray(len(raw))
        codec.decode_into(codec.encode(raw), memoryview(out))
        assert bytes(out) == raw

    def test_zlib_compresses_redundant_data(self):
        codec = get_codec("zlib")
        raw = b"\x00" * 65536
        assert len(codec.encode(raw)) < len(raw) // 10


class TestZlibInflate:
    """Both inflate paths of ``ZlibCodec`` (libdeflate and the stdlib) agree."""

    RAW = np.random.default_rng(5).integers(0, 9, size=(300, 7)).astype(np.float64).tobytes()

    def test_round_trip_and_decode_into_are_exact(self, zlib_inflate):
        assert (codecs._LIBDEFLATE is not None) == (zlib_inflate == "libdeflate")
        codec = get_codec("zlib")
        for raw in (self.RAW, b"", bytes(range(256)) * 33):
            coded = codec.encode(raw)
            assert codec.decode(coded, len(raw)) == raw
            out = bytearray(len(raw))
            assert codec.decode_into(memoryview(coded), memoryview(out)) == len(raw)
            assert bytes(out) == raw

    def test_decodes_straight_into_an_array(self, zlib_inflate):
        codec = get_codec("zlib")
        values = np.frombuffer(self.RAW, dtype=np.float64).reshape(300, 7)
        out = np.full((400, 7), -1.0)
        codec.decode_into(codec.encode(self.RAW), memoryview(out[50:350]).cast("B"))
        assert np.array_equal(out[50:350], values)
        assert (out[:50] == -1).all() and (out[350:] == -1).all()

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_size_mismatch_rejected(self, zlib_inflate, delta):
        codec = get_codec("zlib")
        coded = codec.encode(self.RAW)
        declared = len(self.RAW) + delta
        with pytest.raises(CodecError, match=str(declared)):
            codec.decode(coded, declared)
        with pytest.raises(CodecError, match=str(declared)):
            codec.decode_into(coded, memoryview(bytearray(declared)))

    def test_corrupt_payload_rejected(self, zlib_inflate):
        codec = get_codec("zlib")
        coded = codec.encode(self.RAW)
        flipped = bytearray(coded)
        flipped[len(coded) // 2] ^= 0xFF
        for payload in (b"definitely not zlib", coded[:-4], bytes(flipped)):
            with pytest.raises(CodecError):
                codec.decode(payload, len(self.RAW))
            with pytest.raises(CodecError):
                codec.decode_into(payload, memoryview(bytearray(len(self.RAW))))

    def test_read_only_output_refused(self, zlib_inflate):
        codec = get_codec("zlib")
        target = bytes(len(self.RAW))
        with pytest.raises(TypeError):
            codec.decode_into(codec.encode(self.RAW), memoryview(target))
        assert target == bytes(len(self.RAW))

    def test_decode_block_fault_fires(self, zlib_inflate):
        codec = get_codec("zlib")
        coded = codec.encode(self.RAW)
        set_fault_plan("decode.block:n=0")
        try:
            with pytest.raises(InjectedFault, match="decode.block"):
                codec.decode_into(coded, memoryview(bytearray(len(self.RAW))))
            with pytest.raises(InjectedFault, match="decode.block"):
                codec.decode(coded, len(self.RAW))
        finally:
            set_fault_plan(None)
