"""The sharded dataset format: one matrix split across multiple shard files.

A sharded dataset is a directory containing ``manifest.json`` plus a series of
blocked ``.m3b`` files (``shard-00000.m3b``, ``shard-00001.m3b``, …,
:mod:`repro.data.formats_v2`), each holding a contiguous band of rows (and the
matching slice of the label vector, when labels are present).  Shards can
live on different disks and be generated by independent writers.  Every
writer emits manifest version 2 and row-major blocks, coded by the
manifest's codec: ``none`` (the default, raw rows) or ``zlib``, optionally
downcast to a narrower storage dtype.

Every dataset is read through one class, :class:`ShardedMatrix`, whose
constructor decides once, from :attr:`ShardManifest.mapped`, how each shard
is read:

* **mapped** — codec ``none``, row layout, storage dtype equal to the logical
  dtype: each shard's blocks sit tightly packed in block order, i.e. its data
  region *is* a row-major matrix, so it is mapped (and so is the raw int64
  label segment) with ``np.memmap``.  Contiguous row chunks inside one shard
  are zero-copy views; chunks that straddle a shard boundary are assembled
  with one copy.  Mapped reads skip segment CRCs (a read is a page
  fault); :func:`verify_dataset` still checks them.  A one-shard mapped
  dataset is ``mmap://``, the paper's memory-mapped matrix.
* **decoded** — every other manifest: each shard gets a
  :class:`~repro.data.formats_v2.BlockedMatrixReader` that decodes blocks
  (CRC-checked), and the two-phase ``fetch_compressed`` / ``decode_into``
  API lets each reader of a chunk stream fetch a chunk's payloads and
  decompress them into a pooled buffer itself.

Either way the matrix implements the estimator row-slicing protocol
(``shape``, ``dtype``, ``__getitem__``), so a sharded dataset is as
transparent to unmodified ML code as an in-memory array, and it is
read-only.  That is the only stored form opened here: :func:`read_manifest`
refuses the legacy ones — a single v1 ``.m3`` file, version 1 ``.m3`` shard
directories and column-layout v2 directories — with
:class:`LegacyFormatError`, naming ``m3 convert``, their one reader
(:mod:`repro.api.convert`).

Appendable datasets
-------------------

A sharded dataset becomes *appendable* through :class:`ShardAppender`:
every committed batch of rows produces a new immutable **generation**
manifest (``manifest.<gen>.json``) plus a ``CURRENT`` pointer naming the
latest generation; ``manifest.json`` stays generation 0.  Rows stream into
an open, *unsealed* tail shard, which seals once it reaches ``shard_rows``.
The tail is re-assembled per commit from coded blocks: a block is coded
once, when it fills, and kept; each commit codes only what its batch
changed and writes the kept payloads around it.  Every file lands whole
through :func:`_durable_replace`, so snapshot readers' open memmaps and file
descriptors stay on the inode they first saw.  Readers open a single
generation and never observe a manifest flip mid-scan: a full block is
byte-stable across every file its tail is written to, and every read is
bounded by the generation's row count.  A crash before the ``CURRENT``
rename leaves orphan tail rows and files no generation references; the
appender drops the rows (re-reading only committed ones) on reopen.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.runtime import make_lock
from repro.data.codecs import Codec, get_codec
from repro.data.formats_v2 import (
    BLOCKED_PREFIX_SIZE,
    RAW_DATA_OFFSET,
    BlockedMatrixHeader,
    BlockedMatrixReader,
    BlockedMatrixWriter,
    BlockPayload,
    CodedBlock,
    default_block_rows,
    encode_blocks,
    read_blocked_header,
    shows_header,
    verify_blocked_file,
)
from repro.durable import durable_replace, fsync_directory
from repro.faults import maybe_fire, policy_for

MANIFEST_NAME = "manifest.json"
CURRENT_NAME = "CURRENT"
MANIFEST_VERSION = 2
DEFAULT_SHARD_ROWS = 100_000
DEFAULT_BLOCK_CACHE_BYTES = 32 * 1024 * 1024


class LegacyFormatError(ValueError):
    """A dataset in a stored form this build only converts: a v1 ``.m3``
    file, v1 ``.m3`` shards or column-layout blocks.
    ``m3 convert SRC DST --codec raw|zlib`` rewrites it as row-major v2
    shards, which open, append and scrub.
    """


def _legacy(location: Path, what: str) -> LegacyFormatError:
    """The refusal of ``location``, which ``what`` (a verb phrase) describes."""
    return LegacyFormatError(
        f"{location} {what}, a legacy form this build only converts: "
        f"run `m3 convert SRC DST --codec raw|zlib` and use the copy at DST"
    )


@dataclass(frozen=True)
class ShardInfo:
    """One shard of a sharded dataset: a file plus its global row range.

    Each shard also records its coded and raw byte counts so ``m3 info``
    can report per-shard compression ratios without opening every shard
    file.

    ``sealed`` is ``False`` only for the open tail shard of an appendable
    dataset — the one shard the :class:`ShardAppender` may still extend,
    whose on-disk file may therefore hold *more* rows than the manifest
    commits.
    """

    filename: str
    start_row: int
    rows: int
    compressed_bytes: Optional[int] = None
    raw_bytes: Optional[int] = None
    sealed: bool = True

    @property
    def stop_row(self) -> int:
        """Global index one past the shard's last row."""
        return self.start_row + self.rows

    @property
    def ratio(self) -> Optional[float]:
        """Raw-to-coded ratio, ``None`` for a shard holding no bytes."""
        if not self.compressed_bytes or self.raw_bytes is None:
            return None
        return self.raw_bytes / self.compressed_bytes


@dataclass
class ShardManifest:
    """Parsed ``manifest.json`` of a sharded dataset directory.

    The manifest names the codec plus the blocked geometry (``block_rows``;
    every block is row-major) and the on-disk ``storage_dtype`` (``dtype``
    stays the *logical* dtype consumers see).
    """

    rows: int
    cols: int
    dtype: np.dtype
    has_labels: bool
    codec: str
    block_rows: int
    storage_dtype: np.dtype
    shards: List[ShardInfo] = field(default_factory=list)
    #: Manifest generation: 0 for a static dataset (bare ``manifest.json``),
    #: monotonically increasing with every committed append.
    generation: int = 0

    @staticmethod
    def _shard_entry(shard: ShardInfo) -> dict:
        entry: Dict[str, Any] = {
            "filename": shard.filename,
            "start_row": shard.start_row,
            "rows": shard.rows,
            "compressed_bytes": shard.compressed_bytes,
            "raw_bytes": shard.raw_bytes,
        }
        # The appendable-dataset marker serialises only when non-default, so
        # a static manifest stays byte-identical to what older builds wrote.
        if not shard.sealed:
            entry["sealed"] = False
        return entry

    def to_json(self) -> dict:
        """The JSON-serialisable (version 2) manifest payload.

        ``generation`` and ``sealed`` appear only once an append has
        actually happened.
        """
        payload: Dict[str, Any] = {
            "version": MANIFEST_VERSION,
            "rows": self.rows,
            "cols": self.cols,
            "dtype": np.dtype(self.dtype).str,
            "has_labels": self.has_labels,
            "codec": self.codec,
            "block_rows": self.block_rows,
            "storage_dtype": np.dtype(self.storage_dtype).str,
            "layout": "row",
            "shards": [self._shard_entry(s) for s in self.shards],
        }
        if self.generation > 0:
            payload["generation"] = self.generation
        return payload

    @property
    def mapped(self) -> bool:
        """Whether the shards hold plain row-major rows a memmap can serve.

        True for ``none`` shards stored in the logical dtype: such a file's
        blocks sit tightly packed from its first segment on, so its data
        region is the matrix itself.
        """
        return self.codec == "none" and self.storage_dtype == self.dtype

    @property
    def compressed_bytes(self) -> int:
        """Total coded bytes across shards."""
        return sum(s.compressed_bytes or 0 for s in self.shards)

    @property
    def ratio(self) -> Optional[float]:
        """Raw-to-coded compression ratio (``None`` when no bytes are coded)."""
        compressed = self.compressed_bytes
        return sum(s.raw_bytes or 0 for s in self.shards) / compressed if compressed else None

    @classmethod
    def from_json(cls, payload: dict) -> "ShardManifest":
        """Parse a manifest payload, validating version and shard coverage."""
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported shard manifest version {version!r}: this build "
                f"converts version 1 (`m3 convert`) and reads version "
                f"{MANIFEST_VERSION}; the dataset may have been written by a "
                f"newer repro"
            )
        if not payload.get("codec"):
            raise ValueError("version 2 shard manifest is missing its codec field")
        shards = [
            ShardInfo(
                filename=entry["filename"],
                start_row=int(entry["start_row"]),
                rows=int(entry["rows"]),
                compressed_bytes=entry.get("compressed_bytes"),
                raw_bytes=entry.get("raw_bytes"),
                sealed=bool(entry.get("sealed", True)),
            )
            for entry in payload["shards"]
        ]
        manifest = cls(
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            dtype=np.dtype(payload["dtype"]),
            has_labels=bool(payload["has_labels"]),
            codec=str(payload["codec"]),
            block_rows=int(payload["block_rows"]),
            storage_dtype=np.dtype(payload["storage_dtype"]),
            shards=shards,
            generation=int(payload.get("generation", 0)),
        )
        covered = 0
        for index, shard in enumerate(manifest.shards):
            if shard.start_row != covered:
                raise ValueError(
                    f"shard {shard.filename} starts at row {shard.start_row}, "
                    f"expected {covered} (shards must tile the matrix contiguously)"
                )
            if not shard.sealed and index != len(manifest.shards) - 1:
                raise ValueError(
                    f"shard {shard.filename} is unsealed but is not the tail "
                    f"shard; only the last shard of a manifest may be open"
                )
            covered += shard.rows
        if covered != manifest.rows:
            raise ValueError(
                f"shards cover {covered} rows but the manifest declares {manifest.rows}"
            )
        return manifest

    @property
    def tail_shard(self) -> Optional[ShardInfo]:
        """The unsealed tail shard, or ``None`` when every shard is sealed."""
        if self.shards and not self.shards[-1].sealed:
            return self.shards[-1]
        return None


def generation_manifest_name(generation: int) -> str:
    """Filename of the immutable manifest for ``generation``.

    Generation 0 is the bare ``manifest.json`` — a static dataset has no
    numbered manifests at all until its first append commits.
    """
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")
    return MANIFEST_NAME if generation == 0 else f"manifest.{generation}.json"


def manifest_generation(directory: Union[str, Path]) -> Optional[int]:
    """The committed generation of the dataset at ``directory``.

    ``0`` for a static dataset (bare ``manifest.json``, no ``CURRENT``),
    the ``CURRENT`` pointer's value once appends have committed, and
    ``None`` when the directory holds no sharded dataset at all.  This is a
    single small-file read — cheap enough for trainer polls.
    """
    directory = Path(directory)
    try:
        text = (directory / CURRENT_NAME).read_text(encoding="utf-8").strip()
    except OSError:
        return 0 if (directory / MANIFEST_NAME).is_file() else None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{directory / CURRENT_NAME} does not contain a generation number: {text!r}"
        ) from None


def read_manifest(
    directory: Union[str, Path], generation: Optional[int] = None
) -> ShardManifest:
    """Read and validate a manifest of a sharded dataset directory.

    ``generation=None`` (the default) reads the *latest* committed
    generation: the one ``CURRENT`` points at, or the bare ``manifest.json``
    of a static dataset.  Passing a generation pins the read to that
    generation's immutable manifest file, which is how snapshot readers
    re-open the exact row set they first saw regardless of concurrent
    appends.  It is the one gate of every sharded opener: a legacy manifest,
    or a regular file (a v1 ``.m3`` matrix), raises :class:`LegacyFormatError`.
    """
    directory = Path(directory)
    if directory.is_file():
        raise _legacy(directory, "is a single v1 .m3 file")
    if generation is None:
        generation = manifest_generation(directory)
        if generation is None:
            raise ValueError(
                f"{directory} is not a sharded dataset (no {MANIFEST_NAME})"
            )
    manifest_path = directory / generation_manifest_name(generation)
    if generation == 0 and (directory / "manifest.0.json").is_file():
        # Directories appended by older builds, whose manifest.json mirrors
        # the latest generation, keep generation 0 here; nothing writes it now.
        manifest_path = directory / "manifest.0.json"
    if not manifest_path.is_file():
        raise ValueError(
            f"{directory} has no manifest for generation {generation} "
            f"(missing {manifest_path.name})"
        )
    with manifest_path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") == 1 or payload.get("layout") == "column":
        form = "v1 .m3 shards" if payload.get("version") == 1 else "column-layout blocks"
        raise _legacy(directory, f"stores {form}")
    manifest = ShardManifest.from_json(payload)
    if manifest.generation != generation:
        raise ValueError(
            f"{manifest_path} declares generation {manifest.generation}, "
            f"expected {generation}"
        )
    return manifest


def _durable_replace(tmp: Path, path: Path) -> None:
    """:func:`~repro.durable.durable_replace` at the ``append.*`` fault sites."""
    durable_replace(tmp, path, fault_sites="append")


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory tmp file and
    :func:`_durable_replace`."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    _durable_replace(tmp, path)


def _manifest_text(manifest: ShardManifest) -> str:
    return json.dumps(manifest.to_json(), indent=2) + "\n"


def write_manifest(directory: Union[str, Path], manifest: ShardManifest) -> None:
    """Write ``manifest`` as the directory's ``manifest.json`` (atomically)."""
    _atomic_write_text(Path(directory) / MANIFEST_NAME, _manifest_text(manifest))


def commit_manifest(directory: Union[str, Path], manifest: ShardManifest) -> None:
    """Commit ``manifest`` as a new generation of an appendable dataset.

    Two :func:`_durable_replace` steps: ``manifest.<gen>.json``, then the
    ``CURRENT`` pointer — that rename *is* the commit point.  A crash before
    it leaves the previous generation intact; once this returns, the new one
    survives a crash.  ``manifest.json`` stays generation 0.
    """
    directory = Path(directory)
    if manifest.generation <= 0:
        raise ValueError(
            f"committed generations start at 1, got {manifest.generation}"
        )
    _atomic_write_text(
        directory / generation_manifest_name(manifest.generation),
        _manifest_text(manifest),
    )
    _atomic_write_text(directory / CURRENT_NAME, f"{manifest.generation}\n")


def _clear_generation_state(directory: Path) -> None:
    """Drop ``CURRENT`` and every numbered manifest (dataset re-creation).

    The directory is fsynced once after the unlinks, before the caller
    overwrites any shard: otherwise a crash could bring back a ``CURRENT``
    naming a generation whose shards are gone.  A directory with nothing to
    drop (a fresh create) costs no fsync.
    """
    unlinked = False
    for stale in [directory / CURRENT_NAME, *directory.glob("manifest.*.json")]:
        try:
            os.unlink(stale)
        except OSError:
            continue
        unlinked = True
    if unlinked:
        fsync_directory(directory)


def write_sharded_dataset(
    directory: Union[str, Path],
    data: np.ndarray,
    labels: Optional[np.ndarray] = None,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    codec: Optional[Union[str, Codec]] = None,
    block_rows: Optional[int] = None,
    storage_dtype: Optional[Any] = None,
) -> ShardManifest:
    """Write ``data`` (and optional ``labels``) as a sharded dataset.

    :func:`write_streamed_dataset` over the array's shard bands, so the
    files are the ones that writer produces from the same rows.

    Parameters
    ----------
    directory:
        Destination directory; created if missing.
    data:
        2-D array of shape ``(rows, cols)``.
    labels:
        Optional 1-D integer array of length ``rows``; sliced per shard.
    shard_rows:
        Maximum rows per shard file.
    codec:
        Block codec of the ``.m3b`` shards: ``None`` (the default) or
        ``"none"`` stores raw rows, which :func:`open_sharded_matrix` maps
        with zero-copy views; ``"zlib"`` compresses every block.
    block_rows:
        Rows per coded block (default targets ~1 MiB of raw storage per
        block).
    storage_dtype:
        On-disk dtype; ``None`` stores the data's own dtype losslessly,
        ``float32``/``float16`` downcast for extra compression at bounded
        precision cost (such a dataset is decoded, not mapped).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if shard_rows <= 0:
        raise ValueError(f"shard_rows must be positive, got {shard_rows}")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (data.shape[0],):
            raise ValueError(
                f"labels must have shape ({data.shape[0]},), got {labels.shape}"
            )
    # One band per shard; an empty dataset is one empty band (one shard).
    bands = (
        (
            start,
            data[start : start + shard_rows],
            None if labels is None else labels[start : start + shard_rows],
        )
        for start in range(0, max(int(data.shape[0]), 1), shard_rows)
    )
    return write_streamed_dataset(
        directory,
        bands,
        cols=int(data.shape[1]),
        dtype=data.dtype,
        has_labels=labels is not None,
        shard_rows=shard_rows,
        codec=codec,
        block_rows=block_rows,
        storage_dtype=storage_dtype,
    )


def write_streamed_dataset(
    directory: Union[str, Path],
    bands: Iterable[Tuple[int, np.ndarray, Optional[np.ndarray]]],
    cols: int,
    dtype: Any,
    has_labels: bool,
    shard_rows: int,
    codec: Optional[Union[str, Codec]] = None,
    block_rows: Optional[int] = None,
    storage_dtype: Optional[Any] = None,
) -> ShardManifest:
    """Write a sharded dataset from ``(start_row, rows, labels)`` bands.

    The one sharded writer, behind :func:`write_sharded_dataset` (one band
    per shard of an in-memory array), ``m3 convert`` and ``m3 generate``:
    bands come in row order, none crossing a multiple of ``shard_rows``, and
    each goes straight into its shard's
    :class:`~repro.data.formats_v2.BlockedMatrixWriter`, so memory holds one
    band and the blocks in flight, never the dataset.  Shards are written
    one after another; each band's blocks are coded through
    :func:`~repro.data.formats_v2.encode_blocks`, the one write fan-out.
    ``labels`` is ``None`` in every band of an unlabelled dataset; an empty
    dataset is one empty band.  ``codec``, ``block_rows`` and
    ``storage_dtype`` are :func:`write_sharded_dataset`'s.
    """
    directory = Path(directory)
    resolved_codec = codec if isinstance(codec, Codec) else get_codec(codec or "none")
    resolved_storage = np.dtype(dtype if storage_dtype is None else storage_dtype)
    if block_rows is None:
        block_rows = default_block_rows(cols, resolved_storage.itemsize)
    directory.mkdir(parents=True, exist_ok=True)
    _clear_generation_state(directory)
    shards: List[ShardInfo] = []
    for index, group in groupby(bands, lambda band: band[0] // shard_rows):
        with BlockedMatrixWriter(
            directory / f"shard-{index:05d}.m3b",
            cols=cols,
            block_rows=block_rows,
            codec=resolved_codec,
            dtype=dtype,
            storage_dtype=resolved_storage,
        ) as writer:
            for _start, rows, labels in group:
                writer.append(rows)
                if labels is not None:
                    writer.append_labels(labels)
            header = writer.finalize()
        shards.append(ShardInfo(
            filename=writer.path.name,
            start_row=index * shard_rows,
            rows=header.rows,
            compressed_bytes=header.compressed_bytes,
            raw_bytes=header.raw_bytes,
        ))
    manifest = ShardManifest(
        rows=sum(shard.rows for shard in shards),
        cols=cols,
        dtype=np.dtype(dtype),
        has_labels=has_labels,
        shards=shards,
        codec=resolved_codec.name,
        block_rows=block_rows,
        storage_dtype=resolved_storage,
    )
    write_manifest(directory, manifest)
    return manifest


class ShardedLabels:
    """A lazy view over the per-shard label vectors of a sharded dataset.

    The label vector of a billion-row dataset is small next to its matrix but
    still large enough that eagerly concatenating every shard's label file on
    ``open`` defeats out-of-core training.  This view keeps the per-shard
    label memmaps and stitches ranges *on demand*:

    * ``labels[start:stop]`` gathers only the overlapped shards (a zero-copy
      memmap view when one shard covers the range);
    * ``np.asarray(labels)`` materialises the full vector once and caches it,
      so repeated full reads (the in-core engines) pay the concatenation a
      single time;
    * ``unique()`` computes the sorted distinct labels shard by shard without
      ever holding the stitched vector.
    """

    def __init__(self, shards: List[ShardInfo], label_maps: List[Optional[np.memmap]], rows: int) -> None:
        self._shards = shards
        self._maps = label_maps
        self._rows = rows
        self._materialized: Optional[np.ndarray] = None

    # -- array protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int]:
        """Vector shape ``(rows,)``."""
        return (self._rows,)

    @property
    def dtype(self) -> np.dtype:
        """Always int64 (the M3 label dtype)."""
        return np.dtype(np.int64)

    @property
    def ndim(self) -> int:
        """Always 1."""
        return 1

    def __len__(self) -> int:
        return self._rows

    def __array__(self, dtype=None) -> np.ndarray:
        result = self.materialize()
        return result.astype(dtype) if dtype is not None else result

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._rows)
            if step == 1:
                return self.range(start, stop)
        if self._materialized is not None:
            return self._materialized[key]
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self._rows
            if not 0 <= index < self._rows:
                raise IndexError(f"label index {int(key)} out of range for {self._rows} rows")
            return int(self.range(index, index + 1)[0])
        # Fancy keys (arrays, masks, stepped slices) fall back to the
        # materialised vector; they are not on the streaming hot path.
        return self.materialize()[key]

    # -- gathering ---------------------------------------------------------

    def range(self, start: int, stop: int) -> np.ndarray:
        """Labels for global rows ``[start, stop)``, stitched across shards."""
        start = max(0, start)
        stop = min(self._rows, stop)
        if stop <= start:
            return np.empty(0, dtype=np.int64)
        if self._materialized is not None:
            return self._materialized[start:stop]
        pieces = []
        for shard, labels in zip(self._shards, self._maps):
            if shard.stop_row <= start:
                continue
            if shard.start_row >= stop:
                break
            if labels is None:
                raise ValueError(f"shard {shard.filename} carries no labels")
            pieces.append(
                labels[max(start, shard.start_row) - shard.start_row :
                       min(stop, shard.stop_row) - shard.start_row]
            )
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate([np.asarray(piece) for piece in pieces])

    def gather_into(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Copy labels for rows ``[start, stop)`` into preallocated ``out``.

        The allocation-free mirror of :meth:`range`, used by pooled chunk
        buffers: rows are copied shard by shard straight into ``out``, so a
        straddling range costs one copy and zero fresh arrays.  Returns the
        filled ``out[:stop - start]`` view.
        """
        start = max(0, start)
        stop = min(self._rows, stop)
        rows = max(0, stop - start)
        if out.shape[0] < rows:
            raise ValueError(
                f"output buffer holds {out.shape[0]} labels but the range needs {rows}"
            )
        for shard, labels in zip(self._shards, self._maps):
            if shard.stop_row <= start:
                continue
            if shard.start_row >= stop:
                break
            if labels is None:
                raise ValueError(f"shard {shard.filename} carries no labels")
            lo = max(start, shard.start_row)
            hi = min(stop, shard.stop_row)
            np.copyto(
                out[lo - start : hi - start],
                labels[lo - shard.start_row : hi - shard.start_row],
                casting="unsafe",
            )
        return out[:rows]

    def materialize(self) -> np.ndarray:
        """Stitch (once) and cache the full label vector."""
        if self._materialized is None:
            pieces = [np.asarray(piece) for piece in self._maps if piece is not None]
            if not pieces:
                self._materialized = np.empty(0, dtype=np.int64)
            elif len(pieces) == 1:
                self._materialized = pieces[0]
            else:
                self._materialized = np.concatenate(pieces)
                # Cached and handed to every consumer, like the shard pieces.
                self._materialized.flags.writeable = False
        return self._materialized

    @property
    def is_materialized(self) -> bool:
        """Whether the full stitched vector has been built (and cached)."""
        return self._materialized is not None

    def unique(self) -> np.ndarray:
        """Sorted distinct labels, computed shard by shard."""
        if self._materialized is not None:
            return np.unique(self._materialized)
        seen: Optional[np.ndarray] = None
        for labels in self._maps:
            if labels is None:
                continue
            shard_unique = np.unique(np.asarray(labels))
            seen = shard_unique if seen is None else np.union1d(seen, shard_unique)
        return seen if seen is not None else np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "lazy"
        return f"ShardedLabels(rows={self._rows}, shards={len(self._shards)}, {state})"


class ShardedMatrix:
    """A read-only logical 2-D matrix stitched from the shards of one generation.

    The one reader of every sharded dataset.  The constructor decides once,
    from :attr:`ShardManifest.mapped`, how the shards are read:

    * **mapped** shards (``none`` files in the logical dtype) are served
      by ``np.memmap``: contiguous step-1
      slices inside one shard are zero-copy views of that shard's map,
      everything else is gathered with one copy;
    * every other manifest is served by one
      :class:`~repro.data.formats_v2.BlockedMatrixReader` per shard, and
      every read decodes blocks.  A range read — ``matrix[start:stop]``
      into a fresh array, :meth:`gather_into` into the caller's buffer —
      is :meth:`fetch_compressed` then :meth:`decode_into`: whole blocks
      decode straight into the destination and only the range's two edge
      blocks go through a shared decoded-:class:`_BlockCache`, as random
      reads (index arrays, masks) do.  Every caller runs the two halves
      back to back on one thread; a chunk stream's reader retries the
      fetch alone, since a payload that fails its CRC decodes no better
      the second time.

    Estimators and the chunk planner cannot tell the two apart: both support
    the estimator row-slicing protocol.  Row keys may be integers, slices,
    integer arrays or boolean masks (optionally combined with a column key
    in a tuple); ``None``/``Ellipsis`` keys are not supported.
    """

    def __init__(
        self, directory: Union[str, Path], generation: Optional[int] = None
    ) -> None:
        self._open(Path(directory), generation, None)

    def refresh(self) -> "ShardedMatrix":
        """The dataset's latest generation, opened from this snapshot, open
        or closed.

        Every sealed shard both generations list with the same manifest
        entry, whose file still shows the header this snapshot checked
        (:func:`~repro.data.formats_v2.shows_header`: same prefix, same
        size, intact trailer), keeps this snapshot's path, header and
        decoded labels; it gets a descriptor or maps of its own, built from
        the kept header.  Only the tail and new shards are opened, checked
        and decoded, so a refresh after an append costs the append's shards,
        not the dataset's.  Any other shard — a dataset re-created behind
        this snapshot included — is opened and checked as a fresh open
        would, and refused the same way.  This snapshot is left as it was.
        """
        matrix = ShardedMatrix.__new__(ShardedMatrix)
        matrix._open(self.directory, None, self)
        return matrix

    def _open(
        self,
        directory: Path,
        generation: Optional[int],
        previous: Optional["ShardedMatrix"],
    ) -> None:
        self.directory = directory
        self.manifest = read_manifest(self.directory, generation=generation)
        #: Whether the shards are memory-mapped (``False``: decoded).
        self.mapped = self.manifest.mapped
        self._paths: List[Path] = []
        self._headers: List[BlockedMatrixHeader] = []
        self._maps: List[np.memmap] = []
        self._label_maps: List[Optional[np.ndarray]] = []
        self._readers: List[BlockedMatrixReader] = []
        self._starts = [shard.start_row for shard in self.manifest.shards]
        self._cache = _BlockCache()
        self._lazy_labels: Optional[ShardedLabels] = None
        self._closed = False
        kept = self._sealed_state(previous)
        try:
            for shard, state in zip(self.manifest.shards, kept):
                path, header, labels = state or (self.directory / shard.filename, None, None)
                self._paths.append(path)
                if self.mapped:
                    # The header is checked or read, and the shard mapped,
                    # through one open file: a writer replacing the path
                    # meanwhile cannot pair one file's offsets with another.
                    with open(path, "rb") as handle:
                        if header is None or not shows_header(handle.fileno(), header):
                            header = self._checked_header(
                                shard, read_blocked_header(path, handle.fileno())
                            )
                        self._map_shard(shard, handle, header)
                else:
                    # A tail file read through an older generation's manifest
                    # may hold more rows than that manifest committed; blocks
                    # sit at fixed offsets, so its prefix rows are the committed
                    # ones, and every read below is bounded by the manifest.
                    reader = BlockedMatrixReader(path, header)
                    self._readers.append(reader)
                    if reader.header is not header:
                        header, labels = self._checked_header(shard, reader.header), None
                    # Decoded labels come with the first lazy_labels; those a
                    # sealed shard kept from ``previous`` are already here.
                    self._label_maps.append(labels)
                self._headers.append(header)
        except Exception:
            self.close()
            raise

    def _sealed_state(self, previous: Optional["ShardedMatrix"]) -> list:
        """What ``previous`` holds for each sealed shard this generation
        lists with the very same manifest entry: ``(path, header, decoded
        labels or None)`` at the shard's index, ``None`` elsewhere (and
        everywhere unless ``previous`` is of the same geometry).

        A kept header is only a candidate: the shard's file must still show
        it (:func:`shows_header`) or the shard is opened and checked afresh,
        so a dataset re-created behind ``previous`` is read from disk, never
        from the old snapshot.
        """
        shards = self.manifest.shards
        if previous is None or _geometry(previous.manifest) != _geometry(self.manifest):
            return [None] * len(shards)
        old = previous.manifest.shards
        # Each list is read once: a concurrent lazy_labels on ``previous``
        # rebinds its label list.
        paths, headers, labels = previous._paths, previous._headers, previous._label_maps
        if self.mapped:
            labels = [None] * len(old)  # mapped labels are maps, made anew
        return [
            (paths[index], headers[index], labels[index])
            if index < len(old) and shard.sealed and old[index] == shard
            else None
            for index, shard in enumerate(shards)
        ]

    def _checked_header(
        self, shard: ShardInfo, header: BlockedMatrixHeader
    ) -> BlockedMatrixHeader:
        """``header``, once it passed the open's check against ``shard``."""
        mismatch = _shard_mismatch(shard, header, self.manifest)
        if mismatch is not None:
            raise ValueError(mismatch)
        return header

    def _map_shard(self, shard: ShardInfo, handle: Any, header: BlockedMatrixHeader) -> None:
        """Map exactly the committed rows (and labels) of one shard's open file.

        A ``none`` file holds its rows packed from its first segment on and
        its labels as one raw int64 segment.  An unsealed tail may hold more
        rows than this generation committed; its prefix rows are
        byte-stable, which is the snapshot-isolation guarantee.
        """
        manifest = self.manifest
        blocks = header.blocks
        self._maps.append(np.memmap(
            handle, dtype=manifest.dtype, mode="r",
            offset=blocks[0].segments[0][0] if blocks else BLOCKED_PREFIX_SIZE,
            shape=(shard.rows, manifest.cols), order="C",
        ))
        self._label_maps.append(None if not manifest.has_labels else np.memmap(
            handle, dtype=np.int64, mode="r",
            offset=header.label_segment[0] if header.label_segment else 0,
            shape=(shard.rows,),
        ))

    # -- array protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical matrix shape ``(rows, cols)``."""
        return (self.manifest.rows, self.manifest.cols)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self.manifest.dtype

    @property
    def ndim(self) -> int:
        """Always 2."""
        return 2

    def __len__(self) -> int:
        return self.manifest.rows

    @property
    def nbytes(self) -> int:
        """Total logical size of the matrix in bytes."""
        return self.manifest.rows * self.manifest.cols * self.dtype.itemsize

    @property
    def num_shards(self) -> int:
        """Number of shard files backing the matrix."""
        return len(self.manifest.shards)

    @property
    def generation(self) -> int:
        """The manifest generation this matrix is a snapshot of."""
        return self.manifest.generation

    @property
    def compressed_nbytes(self) -> int:
        """Total coded bytes across shards."""
        return self.manifest.compressed_bytes

    @property
    def shard_paths(self) -> List[Path]:
        """The shard files, in row order (kept from an earlier snapshot
        for the shards it shares)."""
        return list(self._paths)

    @property
    def block_cache(self) -> _BlockCache:
        """The shared decoded-block cache (random reads and streamed edge blocks)."""
        return self._cache

    def __array__(self, dtype=None) -> np.ndarray:
        result = self._gather_range(0, self.manifest.rows)
        result = np.asarray(result)
        return result.astype(dtype) if dtype is not None else result

    # -- gathering ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedMatrix is closed")

    def _check_out(self, out: np.ndarray, rows: int) -> None:
        if out.ndim != 2 or out.shape[0] < rows or out.shape[1] != self.manifest.cols:
            raise ValueError(
                f"output buffer of shape {out.shape} cannot hold {rows} rows "
                f"of {self.manifest.cols} columns"
            )

    def _overlapping(self, start: int, stop: int):
        """``(index, shard)`` of every shard overlapping rows ``[start, stop)``."""
        for index, shard in enumerate(self.manifest.shards):
            if shard.stop_row <= start:
                continue
            if shard.start_row >= stop:
                break
            yield index, shard

    def _decoded_block(
        self, shard_index: int, block_index: int, payload: Optional[BlockPayload] = None
    ) -> np.ndarray:
        """Block ``block_index`` of shard ``shard_index``, decoded whole, through
        the cache; ``payload`` is its fetched bytes, when the caller has them."""
        key = (shard_index, block_index)
        decoded = self._cache.get(key)
        if decoded is None:
            reader = self._readers[shard_index]
            block = reader.header.blocks[block_index]
            if payload is None:
                payload = reader.fetch_block(block_index)
            decoded = np.empty((block.rows, self.manifest.cols), dtype=self.dtype)
            reader.decode_block_into(payload, block.start_row, block.stop_row, decoded)
            self._cache.put(key, decoded)
        return decoded

    def _gather_range(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)``: a view when one mapped shard covers the
        range, else a fresh array (decoded shards fill it as
        :meth:`gather_into` fills a buffer)."""
        self._check_open()
        start = max(0, start)
        stop = min(self.manifest.rows, stop)
        if stop <= start:
            return np.empty((0, self.manifest.cols), dtype=self.dtype)
        if not self.mapped:
            out = np.empty((stop - start, self.manifest.cols), dtype=self.dtype)
            return self.decode_into(self.fetch_compressed(start, stop), out)
        pieces = [
            self._maps[index][max(start, shard.start_row) - shard.start_row :
                              min(stop, shard.stop_row) - shard.start_row]
            for index, shard in self._overlapping(start, stop)
        ]
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, axis=0)

    def gather_into(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Copy rows ``[start, stop)`` into preallocated ``out`` (no allocation).

        The allocation-free mirror of ``matrix[start:stop]``, used by the
        parallel chunk pipeline's reusable buffer pool: each overlapped
        mapped shard's rows are copied directly into ``out``, never through
        an intermediate ``np.concatenate``; decoded shards decode into it
        (edge blocks via the cache).  Returns the filled
        ``out[:stop - start]`` view.
        """
        self._check_open()
        if not self.mapped:
            return self.decode_into(self.fetch_compressed(start, stop), out)
        start = max(0, start)
        stop = min(self.manifest.rows, stop)
        rows = max(0, stop - start)
        self._check_out(out, rows)
        for index, shard in self._overlapping(start, stop):
            lo = max(start, shard.start_row)
            hi = min(stop, shard.stop_row)
            np.copyto(
                out[lo - start : hi - start],
                self._maps[index][lo - shard.start_row : hi - shard.start_row],
                casting="unsafe",
            )
        return out[:rows]

    def _gather_indices(self, indices: np.ndarray) -> np.ndarray:
        """Rows at arbitrary global ``indices`` (1-D), in order, as a copy."""
        self._check_open()
        out = np.empty((indices.shape[0], self.manifest.cols), dtype=self.dtype)
        if self.mapped:
            for shard, data in zip(self.manifest.shards, self._maps):
                mask = (indices >= shard.start_row) & (indices < shard.stop_row)
                if np.any(mask):
                    out[mask] = data[indices[mask] - shard.start_row]
            return out
        block_rows = self.manifest.block_rows
        for position, raw_index in enumerate(indices):
            index = int(raw_index)
            shard_index = int(
                np.searchsorted(self._starts, index, side="right") - 1
            )
            local = index - self._starts[shard_index]
            decoded = self._decoded_block(shard_index, local // block_rows)
            out[position] = decoded[local % block_rows]
        return out

    def _normalize_row_key(self, row_key: Any):
        """Classify a row key as a contiguous range, index array or bool mask."""
        rows = self.manifest.rows
        if isinstance(row_key, slice):
            start, stop, step = row_key.indices(rows)
            if step == 1:
                return ("range", start, max(start, stop))
            indices = np.arange(start, stop, step)
            return ("indices", indices)
        if isinstance(row_key, (int, np.integer)):
            index = int(row_key)
            if index < 0:
                index += rows
            if not 0 <= index < rows:
                raise IndexError(
                    f"row index {int(row_key)} out of range for {rows} rows"
                )
            return ("int", index)
        if isinstance(row_key, (list, np.ndarray)):
            arr = np.asarray(row_key)
            if arr.dtype == bool:
                if arr.shape[0] != rows:
                    raise IndexError(
                        f"boolean mask of length {arr.shape[0]} does not match {rows} rows"
                    )
                return ("indices", np.nonzero(arr)[0])
            if arr.ndim != 1:
                raise TypeError("multi-dimensional fancy indexing is not supported")
            if arr.size and (arr.min() < -rows or arr.max() >= rows):
                raise IndexError(f"row indices out of range for {rows} rows")
            return ("indices", np.where(arr < 0, arr + rows, arr).astype(np.intp))
        raise TypeError(f"unsupported row key {row_key!r} for ShardedMatrix")

    def __getitem__(self, key: Any) -> np.ndarray:
        col_key = None
        row_key = key
        if isinstance(key, tuple):
            if len(key) > 2:
                raise TypeError("ShardedMatrix only supports 2-D indexing")
            row_key = key[0]
            if len(key) == 2:
                col_key = key[1]
        kind, *rest = self._normalize_row_key(row_key)
        if kind == "int":
            row = self._gather_range(rest[0], rest[0] + 1)[0]
            return row if col_key is None else row[col_key]
        if kind == "range":
            block = self._gather_range(rest[0], rest[1])
        else:
            block = self._gather_indices(rest[0])
        if col_key is None:
            return block
        if kind == "range" or isinstance(row_key, slice):
            return block[:, col_key]
        # The row key was an advanced index, so a fancy column key pairs with
        # it elementwise (NumPy advanced-advanced semantics); scalar and slice
        # column keys combine as basic indexing on the gathered rows.
        if isinstance(col_key, (list, np.ndarray)):
            col_arr = np.asarray(col_key)
            if col_arr.dtype == bool:
                col_arr = np.nonzero(col_arr)[0]
            if col_arr.ndim >= 1:
                return block[np.arange(block.shape[0]), col_arr]
        return block[:, col_key]

    # -- two-phase reads of decoded shards: fetch (I/O), then decode (CPU) --

    def fetch_compressed(self, start: int, stop: int) -> CompressedRange:
        """Fetch (I/O only) every coded payload covering rows ``[start, stop)``.

        Safe to call concurrently from many reader threads: the underlying
        readers serve payloads with positioned ``pread`` and take no locks.
        Decoded matrices only: mapped shards have no block readers.
        """
        self._check_open()
        start = max(0, start)
        stop = min(self.manifest.rows, stop)
        parts: List[Tuple[int, int, BlockPayload]] = []
        fetched = 0
        if stop > start:
            for index, shard in self._overlapping(start, stop):
                reader = self._readers[index]
                local_lo = max(start, shard.start_row) - shard.start_row
                local_hi = min(stop, shard.stop_row) - shard.start_row
                for block_index in reader.blocks_for(local_lo, local_hi):
                    payload = reader.fetch_block(block_index)
                    parts.append((index, shard.start_row, payload))
                    fetched += payload.compressed_bytes
        return CompressedRange(
            start=start, stop=stop, parts=tuple(parts), compressed_bytes=fetched
        )

    def decode_into(self, fetched: CompressedRange, out: np.ndarray) -> np.ndarray:
        """Decode (CPU only) a fetched range into preallocated ``out``.

        A block the range covers whole decodes straight into ``out``; an
        *edge* block, which the neighbouring range also needs, is decoded
        once into the block cache and sliced from there, so consecutive
        chunks of a scan rarely decode their shared block twice (two readers
        that miss the cache together both decode it).  Stored in the logical
        dtype, either destination is inflated directly by the codec
        (:meth:`~repro.data.formats_v2.BlockedMatrixReader.decode_block_into`);
        a narrower storage dtype decodes to a transient array and is cast on
        the copy.  Returns the filled ``out[:fetched.rows]`` view.
        """
        rows = fetched.rows
        self._check_out(out, rows)
        for reader_index, shard_start, payload in fetched.parts:
            reader = self._readers[reader_index]
            block = reader.header.blocks[payload.index]
            block_lo = shard_start + block.start_row
            global_lo = max(fetched.start, block_lo)
            global_hi = min(fetched.stop, block_lo + block.rows)
            if global_hi - global_lo == block.rows:
                reader.decode_block_into(
                    payload,
                    block.start_row,
                    block.stop_row,
                    out,
                    out_offset=global_lo - fetched.start,
                )
                continue
            decoded = self._decoded_block(reader_index, payload.index, payload)
            out[global_lo - fetched.start : global_hi - fetched.start] = decoded[
                global_lo - block_lo : global_hi - block_lo
            ]
        return out[:rows]

    # -- labels and lifecycle ----------------------------------------------

    @property
    def lazy_labels(self) -> Optional[ShardedLabels]:
        """Lazy per-shard label view (``None`` for unlabelled datasets).

        The view is created once and cached, so all consumers share one
        stitched-vector cache.  Decoded shards' label segments decode on
        first touch, through the same transient-error envelope as blocks,
        each sliced to the manifest's committed rows: an unsealed tail file
        rewritten by a later append may carry more labels than this
        generation committed.  A sealed shard kept from an earlier snapshot
        brings its decoded labels along.  Every label array is read-only,
        as mapped ones are: snapshots share them.
        """
        self._check_open()
        if not self.manifest.has_labels:
            return None
        if self._lazy_labels is None:
            if not self.mapped:
                read = policy_for("read.pread").call
                self._label_maps = [
                    _committed_labels(read(reader.read_labels, site="read.pread"), shard.rows)
                    if labels is None else labels
                    for shard, reader, labels in zip(
                        self.manifest.shards, self._readers, self._label_maps
                    )
                ]
            self._lazy_labels = ShardedLabels(
                self.manifest.shards, self._label_maps, self.manifest.rows
            )
        return self._lazy_labels

    def read_labels(self) -> Optional[np.ndarray]:
        """The stitched int64 label vector, built lazily and cached."""
        labels = self.lazy_labels
        return None if labels is None else labels.materialize()

    def close(self) -> None:
        """Release the shard memory maps or file descriptors, and the cache.

        Mapped labels are released from the :attr:`lazy_labels` view too,
        which a closed handle may still hold.  What :meth:`refresh` takes
        from a snapshot stays: the shard paths, their checked headers and
        the decoded labels, plain memory that holds no file open.
        """
        if self._closed:
            return
        for reader in self._readers:
            reader.close()
        self._maps = []
        self._readers = []
        if self.mapped:
            self._label_maps.clear()  # the list the lazy view reads
            if self._lazy_labels is not None:
                self._lazy_labels._materialized = None
        self._lazy_labels = None
        self._cache.clear()
        self._closed = True

    def __enter__(self) -> "ShardedMatrix":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedMatrix(shape={self.shape}, dtype={self.dtype}, "
            f"codec={self.manifest.codec!r}, shards={self.num_shards}, "
            f"directory={str(self.directory)!r})"
        )


class _BlockCache:
    """A byte-bounded LRU of decoded blocks, shared across partial reads.

    The cache exists so a block is not re-decoded by every read that wants
    only part of it: *random* access (fancy indexing, repeated small slices,
    interactive inspection), and the *edge* blocks of a range — a block two
    consecutive ranges share (two chunks of a scan, two pieces of a trainer's
    delta) is decoded by the first and sliced from here by the second.
    Blocks a range covers whole bypass the cache and decode straight into
    its destination.  The lock is a leaf: nothing else is ever acquired
    while it is held, and decoding happens outside it.
    """

    def __init__(self) -> None:
        self.capacity_bytes = DEFAULT_BLOCK_CACHE_BYTES
        self._lock = make_lock("repro.api.sharded._BlockCache._lock")
        self._entries: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return entry

    def put(self, key: Tuple[int, int], block: np.ndarray) -> None:
        if block.nbytes > self.capacity_bytes:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._nbytes -= previous.nbytes
            self._entries[key] = block
            self._nbytes += block.nbytes
            while self._nbytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= evicted.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes currently cached."""
        with self._lock:
            return self._nbytes


@dataclass(frozen=True)
class CompressedRange:
    """The fetched-but-not-decoded payloads covering rows ``[start, stop)``.

    The I/O half of a compressed read: ``parts`` pairs each fetched
    :class:`~repro.data.formats_v2.BlockPayload` with the index and global
    start row of the shard it came from, so :meth:`ShardedMatrix.decode_into`
    can land every block at the right output offset.
    """

    start: int
    stop: int
    parts: Tuple[Tuple[int, int, BlockPayload], ...]
    compressed_bytes: int

    @property
    def rows(self) -> int:
        """Row count of the range."""
        return self.stop - self.start


@dataclass(frozen=True)
class _CodedTail:
    """The open tail shard as :class:`ShardAppender` holds it between commits.

    ``blocks`` are the tail's full blocks, each coded once, when it filled;
    ``short`` owns the rows (fewer than ``block_rows``) of the last, still
    growing block and ``coded_short`` holds them coded (``None`` when there
    are none); ``labels`` owns the label of every tail row.
    """

    blocks: Tuple[CodedBlock, ...]
    short: np.ndarray
    coded_short: Optional[CodedBlock]
    labels: np.ndarray


class ShardAppender:
    """Streams rows into a sharded dataset, one committed generation per batch.

    Each :meth:`append` call lands its rows in the open *tail* shard (and as
    many freshly started shards as the batch needs — shards seal at
    ``shard_rows``), then commits exactly one new manifest generation via
    :func:`commit_manifest`.  Blocks sit at fixed multiples of
    ``block_rows``, so a full block's coded bytes never change once it has
    filled.  The appender keeps the tail as its coded full blocks, the raw
    rows of the one short last block, and the labels; a commit codes only
    the blocks the batch filled plus the short block and the label segment
    — at most ``ceil(batch / block_rows) + 2`` codec calls per shard
    touched, however full the tail is, the blocks spread over every core by
    :func:`~repro.data.formats_v2.encode_blocks` — and assembles the tail
    ``.m3b`` file from those payloads.  The file is replaced whole
    (same-directory tmp file, :func:`_durable_replace`) because a blocked file
    is unreadable until finalized and readers pinned to an older generation
    keep their memmap or file descriptor on the old inode; every file is
    byte-for-byte what :func:`~repro.data.formats_v2.write_blocked_matrix`
    writes for the same rows.  A dataset in a legacy stored form (v1
    shards, column layout) raises :class:`LegacyFormatError` at open.

    Crash safety, where a rename is durable only once its directory has
    been fsynced: each shard, then ``manifest.<g+1>.json``, then ``CURRENT``
    lands through :func:`_durable_replace`, so a crash leaves generation
    ``g`` or, once ``CURRENT``'s rename survived, ``g+1``, and an append
    that returned survives.  Opening an appender recovers the committed
    state: the tail's committed blocks are taken from the file as stored
    (CRC-checked, not re-coded), the rows of its short last block are
    decoded as well, and orphan rows are dropped; a tail that cannot be
    read refuses the open with the shard and the committed row count named,
    and so does a tail file whose geometry (codec, block height, storage
    dtype, columns) is not the manifest's.  An exception out of
    :meth:`append` leaves this object's view of the dataset untrusted, so
    the next call first re-reads the committed manifest and recovers again
    — exactly what a fresh ``ShardAppender(directory)`` would do.

    ``trace`` (an :class:`~repro.vmem.trace.AccessTrace`) records one WRITE
    record per landed row band at logical matrix offsets, so the simulator
    can replay mixed read/append workloads.

    The lock serialises whole append→commit cycles; it is registered at
    rank 90 — above the session and registry locks, so serving/training
    paths holding those may append, and itself a leaf that never re-enters
    the session layer.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard_rows: Optional[int] = None,
        trace: Any = None,
    ) -> None:
        self.directory = Path(directory)
        self._lock = make_lock("repro.api.sharded.ShardAppender._lock")
        self.trace = trace
        self._load()
        if shard_rows is None:
            # An empty dataset's only shard holds no rows to size shards by.
            shard_rows = max(
                (s.rows for s in self._manifest.shards), default=0
            ) or DEFAULT_SHARD_ROWS
        if shard_rows <= 0:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        self.shard_rows = int(shard_rows)

    # -- introspection -------------------------------------------------------

    @property
    def manifest(self) -> ShardManifest:
        """The latest committed manifest."""
        return self._manifest

    @property
    def generation(self) -> int:
        """The latest committed generation."""
        return self._manifest.generation

    @property
    def rows(self) -> int:
        """Total committed rows."""
        return self._manifest.rows

    # -- recovery ------------------------------------------------------------

    def _load(self) -> None:
        """Adopt the committed state on disk: manifest, geometry, tail."""
        # Until this completes (and again from an append's first disk write
        # to its commit) memory and disk may disagree: append() reloads.
        self._stale = True
        manifest = self._manifest = read_manifest(self.directory)
        self._row_bytes = manifest.cols * manifest.dtype.itemsize
        self._codec = get_codec(manifest.codec)
        self._storage_dtype = manifest.storage_dtype
        self._block_rows = manifest.block_rows
        self._tail = self._recover_tail()
        self._stale = False

    def _empty_tail(self) -> _CodedTail:
        manifest = self._manifest
        return _CodedTail(
            blocks=(),
            short=np.empty((0, manifest.cols), dtype=manifest.dtype),
            coded_short=None,
            labels=np.empty(0, dtype=np.int64),
        )

    def _recover_tail(self) -> _CodedTail:
        """The committed rows of the tail file, blocks still coded."""
        manifest = self._manifest
        tail = manifest.tail_shard
        if tail is None:
            return self._empty_tail()
        path = self.directory / tail.filename
        # Recovery that cannot read the tail, or finds it under a geometry
        # that is not the manifest's, must not leave an appender working
        # from a tail it does not know: refuse the open and point the
        # operator at the exact shard and row count that *is* durable.
        refusal = f"dataset needs manual repair: {path}, committed={tail.rows}"
        try:
            maybe_fire("append.recover", str(path))
            with BlockedMatrixReader(path) as reader:
                header = reader.header
                mismatch = _shard_mismatch(tail, header, manifest)
                if mismatch is not None:
                    raise RuntimeError(f"{refusal} ({mismatch})")
                # Blocks the committed rows fill are identical in every file
                # this tail was ever written to, so they are kept as stored, and
                # so is the committed short block unless a crashed append's
                # orphan rows (past ``tail.rows``, dropped here) landed in it.
                kept = tail.rows // self._block_rows
                stored = kept + (
                    len(header.blocks) > kept
                    and header.blocks[kept].rows == tail.rows - kept * self._block_rows
                )
                blocks = tuple(reader.fetch_coded_block(i) for i in range(stored))
                rest = reader.read_rows(kept * self._block_rows, tail.rows)
                labels = None
                if manifest.has_labels:
                    labels = reader.read_labels()
                    if labels is None or labels.shape[0] < tail.rows:
                        raise ValueError(
                            f"tail shard {tail.filename} is missing labels"
                        )
                    labels = labels[: tail.rows]
        except OSError as error:
            raise RuntimeError(f"{refusal} (tail recovery failed: {error})") from error
        kept_tail = replace(self._empty_tail(), blocks=blocks[:kept])
        if stored > kept:
            # The short block came back as stored: recovery codes nothing.
            return replace(
                kept_tail, short=rest, coded_short=blocks[kept],
                labels=kept_tail.labels if labels is None else labels,
            )
        return self._extend_tail(kept_tail, rest, labels)

    # -- the write path ------------------------------------------------------

    def _next_shard_filename(self, shards: List[ShardInfo]) -> str:
        # Probe, never derive the name from len(shards): crashed sealing
        # appends leave orphan shard files, so earlier appends may have
        # skipped names, and a derived name could be a committed shard's.
        index = len(shards)
        while True:
            filename = f"shard-{index:05d}.m3b"
            if not (self.directory / filename).exists():
                return filename
            index += 1

    def _extend_tail(
        self, tail: _CodedTail, chunk: np.ndarray, labels: Optional[np.ndarray]
    ) -> _CodedTail:
        """``tail`` grown by ``chunk``, coded: the blocks the chunk fills and
        the new short block go through one :func:`encode_blocks` map, so a
        commit's codec work spreads over every core."""
        block_rows = self._block_rows
        short = tail.short
        # Rows that top up the short block (none when the tail ends on a
        # block boundary).  Every block after it is coded straight from
        # ``chunk``; only the remainder is copied, to outlive the call.
        top_up = min(chunk.shape[0], -short.shape[0] % block_rows)
        if top_up:
            short = np.concatenate([short, chunk[:top_up]])
        stop = top_up + (chunk.shape[0] - top_up) // block_rows * block_rows
        filled = [
            chunk[lo : lo + block_rows] for lo in range(top_up, stop, block_rows)
        ]
        if short.shape[0] == block_rows:
            filled.insert(0, short)
        if short.shape[0] % block_rows == 0:
            # The short block is used up (or there was none): what is left
            # of the chunk starts the next one.
            short = np.array(chunk[stop:], copy=True)
        coded = tuple(encode_blocks(
            filled + [short] if short.shape[0] else filled,
            self._codec, self._storage_dtype,
        ))
        return _CodedTail(
            blocks=tail.blocks + coded[: len(filled)],
            short=short,
            coded_short=coded[len(filled)] if short.shape[0] else None,
            labels=tail.labels if labels is None
            else np.concatenate([tail.labels, labels]),
        )

    def _write_shard(self, shard: ShardInfo, tail: _CodedTail) -> ShardInfo:
        """Assemble a shard file from ``tail``; return its final info.

        Every block, the short last one included, is written as ``tail``
        holds it coded; only the label segment meets the codec here.
        """
        manifest = self._manifest
        path = self.directory / shard.filename
        tmp = path.with_name(path.name + ".tmp")
        with BlockedMatrixWriter(
            tmp,
            cols=manifest.cols,
            block_rows=self._block_rows,
            codec=self._codec,
            dtype=manifest.dtype,
            storage_dtype=self._storage_dtype,
        ) as writer:
            for block in tail.blocks:
                writer.write_coded_block(block)
            if tail.coded_short is not None:
                writer.write_coded_block(tail.coded_short)
            if manifest.has_labels:
                writer.append_labels(tail.labels)
        _durable_replace(tmp, path)
        return replace(
            shard,
            compressed_bytes=writer.compressed_bytes,
            raw_bytes=writer.raw_bytes,
        )

    def append(self, X: np.ndarray, y: Optional[np.ndarray] = None) -> ShardManifest:
        """Append rows (and labels), commit, and return the new manifest.

        One call = one committed generation, however many shards the batch
        fills.  Appending zero rows commits nothing and returns the current
        manifest.  If the call raises, nothing was committed or the commit
        is on disk in full — never a part of it — and the next call finds
        out which by recovering from disk first.
        """
        with self._lock:
            if self._stale:
                self._load()
            manifest = self._manifest
            # Owned rows: a none-coded block is a view of them, kept in the
            # tail between commits, so the caller's array must not back it.
            X = np.array(X, dtype=manifest.dtype, order="C")
            if X.ndim != 2 or X.shape[1] != manifest.cols:
                raise ValueError(
                    f"appended rows must have shape (n, {manifest.cols}), "
                    f"got {X.shape}"
                )
            if manifest.has_labels:
                if y is None:
                    raise ValueError(
                        "this dataset has labels; append(X, y) requires them"
                    )
                y = np.ascontiguousarray(np.asarray(y, dtype=np.int64))
                if y.shape != (X.shape[0],):
                    raise ValueError(
                        f"labels must have shape ({X.shape[0]},), got {y.shape}"
                    )
            elif y is not None:
                raise ValueError("this dataset has no labels; append(X) only")
            if X.shape[0] == 0:
                return manifest

            # From the first byte written to the manifest commit, what this
            # object believes and what is on disk differ; should anything
            # below raise, the next call recovers from disk before writing.
            self._stale = True
            coded_tail = self._tail
            shards = list(manifest.shards)
            offset = 0
            total_rows = manifest.rows
            while offset < X.shape[0]:
                tail = shards[-1] if shards and not shards[-1].sealed else None
                if tail is not None and tail.rows >= self.shard_rows:
                    # An over-capacity tail (shard_rows shrank between
                    # sessions): seal it as-is and start fresh.
                    shards[-1] = self._write_shard(
                        replace(tail, sealed=True), coded_tail
                    )
                    coded_tail = self._empty_tail()
                    tail = None
                if tail is None:
                    tail = ShardInfo(
                        filename=self._next_shard_filename(shards),
                        start_row=total_rows,
                        rows=0,
                        sealed=False,
                    )
                    shards.append(tail)
                take = min(X.shape[0] - offset, self.shard_rows - tail.rows)
                coded_tail = self._extend_tail(
                    coded_tail,
                    X[offset : offset + take],
                    y[offset : offset + take] if y is not None else None,
                )
                if self.trace is not None:
                    self.trace.record(
                        offset=total_rows * self._row_bytes,
                        length=take * self._row_bytes,
                        kind="write",
                    )
                tail = replace(
                    tail,
                    rows=tail.rows + take,
                    sealed=tail.rows + take >= self.shard_rows,
                )
                shards[-1] = tail
                if tail.sealed:
                    shards[-1] = self._write_shard(tail, coded_tail)
                    coded_tail = self._empty_tail()
                offset += take
                total_rows += take
            if not shards[-1].sealed:
                shards[-1] = self._write_shard(shards[-1], coded_tail)
            committed = replace(
                manifest,
                rows=total_rows,
                shards=shards,
                generation=manifest.generation + 1,
            )
            commit_manifest(self.directory, committed)
            self._manifest = committed
            self._tail = coded_tail
            self._stale = False
            return committed


def open_sharded_matrix(
    directory: Union[str, Path], generation: Optional[int] = None
) -> ShardedMatrix:
    """Open the sharded dataset at ``directory`` as a :class:`ShardedMatrix`.

    The opener the CLI, ``convert`` and the storage backend call; the
    manifest decides whether the shards are mapped or decoded.
    ``generation`` pins the open to one committed manifest generation
    (``None`` = latest).  :meth:`ShardedMatrix.refresh` opens the latest
    generation from an earlier snapshot instead, re-reading only what changed.
    """
    return ShardedMatrix(directory, generation=generation)


def _geometry(manifest: ShardManifest) -> tuple:
    """What two manifests must share for a shard's checked state to carry over."""
    return (
        manifest.cols, manifest.dtype, manifest.has_labels,
        manifest.codec, manifest.block_rows, manifest.storage_dtype,
    )


def _committed_labels(raw: Optional[np.ndarray], rows: int) -> Optional[np.ndarray]:
    """A decoded label segment cut to the committed ``rows``, read-only."""
    if raw is None:
        return None
    labels = raw[:rows]
    labels.flags.writeable = False
    return labels


def _shard_mismatch(
    shard: ShardInfo, header: BlockedMatrixHeader, manifest: ShardManifest
) -> Optional[str]:
    """Why a shard file with ``header`` cannot serve ``shard`` (``None``: it can).

    The one per-shard header check, run by every open, by tail recovery and
    by :func:`verify_dataset`.  The file must store row-major blocks of the
    manifest's codec, block height and storage dtype.  A sealed shard holds
    exactly its committed rows; an unsealed tail may hold more, written by a
    later generation or a crashed append.  A file holding rows carries a
    label segment exactly when the manifest declares labels.
    """
    declared = (manifest.codec, "row", manifest.block_rows, manifest.storage_dtype)
    stored = (header.codec, header.layout, header.block_rows, header.storage_dtype)
    if stored != declared:
        return (
            f"shard {shard.filename} stores {'/'.join(map(str, stored))} blocks (codec/"
            f"layout/rows/storage dtype), the manifest declares {'/'.join(map(str, declared))}"
        )
    if (
        header.cols != manifest.cols
        or np.dtype(header.dtype) != manifest.dtype
        or header.rows < shard.rows
        or (shard.sealed and header.rows != shard.rows)
    ):
        return (
            f"shard {shard.filename} holds a {header.rows} x {header.cols} "
            f"{header.dtype} matrix, manifest expects {shard.rows} x "
            f"{manifest.cols} {manifest.dtype}"
        )
    if header.has_labels != (manifest.has_labels and header.rows > 0):
        return (
            f"shard {shard.filename} {'has' if header.has_labels else 'lacks'} a "
            f"label segment, the manifest declares "
            f"{'labels' if manifest.has_labels else 'none'}"
        )
    return None


def misaligned_shards(
    manifest: ShardManifest, headers: Iterable[BlockedMatrixHeader]
) -> List[str]:
    """The mapped shards whose rows do not start on a 64-byte boundary.

    ``headers`` are the shards' headers, in manifest order; they are only
    read when the manifest is mapped.  Every raw shard written today starts
    its rows at :data:`~repro.data.formats_v2.RAW_DATA_OFFSET`; one whose
    rows start at byte 32 still opens and reads correctly, but its maps
    serve rows that straddle cache lines, and scans over it run slower
    (``m3 convert SRC DST --codec raw`` rewrites it aligned).
    """
    if not manifest.mapped:
        return []
    return [
        shard.filename
        for shard, header in zip(manifest.shards, headers)
        if header.blocks and header.blocks[0].segments[0][0] % RAW_DATA_OFFSET
    ]


def verify_dataset(
    directory: Union[str, Path], generation: Optional[int] = None
) -> List[str]:
    """Scrub every shard of the dataset at ``directory``; list the problems.

    Every shard's header gets the check an open runs: it must parse, and
    match the manifest's rows, columns, dtype, codec, block height and
    storage dtype.  Every shard, mapped ones included, then gets the full
    treatment — every segment fetched, CRC-checked and decoded via
    :func:`~repro.data.formats_v2.verify_blocked_file`.  An empty list means
    the dataset is clean; each entry names the exact file (and block) that
    needs attention.  ``m3 info --verify`` prints these.  A legacy dataset
    raises :class:`LegacyFormatError`, as every opener does.
    """
    directory = Path(directory)
    try:
        manifest = read_manifest(directory, generation=generation)
    except LegacyFormatError:
        raise
    except (ValueError, OSError) as error:
        return [f"{directory}: unreadable manifest: {error}"]
    problems: List[str] = []
    for shard in manifest.shards:
        path = directory / shard.filename
        # Names an unreadable header too, so the except below stays quiet.
        problems.extend(verify_blocked_file(path))
        try:
            header = read_blocked_header(path)
        except (ValueError, OSError):
            continue
        mismatch = _shard_mismatch(shard, header, manifest)
        if mismatch is not None:
            problems.append(f"{path}: {mismatch}")
    return problems
