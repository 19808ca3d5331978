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
    DEFLATE via the stdlib :mod:`zlib`.  Dense numeric blocks — especially
    downcast float32 or small-integer data — routinely compress several-fold,
    which converts an I/O-bound scan into decode compute the streaming
    pipeline's worker pool can parallelize (``zlib`` releases the GIL while
    (de)compressing).

Codecs are looked up by name through :data:`CODEC_REGISTRY`; downstream code
registers new ones (lz4, zstd bindings when available) with
:func:`register_codec` without touching the format code.  The decode side is
deliberately split in two shapes:

* :meth:`Codec.decode` returns the raw bytes (one transient allocation, owned
  by the caller);
* :meth:`Codec.decode_into` writes straight into a caller buffer when the
  codec can (the ``none`` codec always can; ``zlib`` decodes once and copies),
  returning the byte count — this is what lets the chunk pipeline land
  decoded blocks in preallocated :class:`~repro.api.chunks.ChunkBufferPool`
  leases instead of fresh arrays.
"""

from __future__ import annotations

import abc
import zlib
from typing import Dict, Tuple, Union

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

        The default decodes to a transient bytes object and copies; codecs
        that can stream into a caller buffer override this.
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


class ZlibCodec(Codec):
    """DEFLATE via the stdlib; ``level`` trades ratio for encode speed."""

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
            raw = zlib.decompress(bytes(payload))
        except zlib.error as error:
            raise CodecError(f"zlib payload failed to decode: {error}") from error
        return self._check_size(raw, raw_bytes)


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
