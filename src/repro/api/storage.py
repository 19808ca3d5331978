"""Pluggable storage backends behind the :class:`~repro.api.Dataset` handle.

A :class:`StorageBackend` turns a *location* (a directory or an in-memory
name) into a raw 2-D matrix plus optional labels, and knows how to create new
datasets at such a location.  Three backends ship with the library, two of
them over one stored form:

``memory``
    Named in-memory arrays.  The degenerate backend that makes the
    transparency property testable — the same :class:`~repro.api.Dataset`
    code path works on plain ``ndarray`` data.
``mmap``
    The paper's storage model: one dense, row-major matrix the OS maps.  It
    is a ``shard`` dataset of one raw (codec ``none``) shard — ``create``
    writes every row into that shard and takes no options — so it opens as
    one zero-copy memory map, and every block carries a CRC that
    :func:`~repro.api.sharded.verify_dataset` (``m3 info --verify``) checks.
``shard``
    A directory of blocked ``.m3b`` files tiling the matrix row-wise (see
    :mod:`repro.api.sharded`); row chunks are served across shard boundaries.
    The manifest records the codec, ``block_rows`` and on-disk
    ``storage_dtype``.  Opening is transparent: one
    :class:`~repro.api.sharded.ShardedMatrix` serves every manifest, mapping
    raw (codec ``none``) shards as zero-copy views and decoding coded ones
    (``session.create(spec, X, y, codec="zlib")`` or ``m3 convert``) on the
    streaming pipeline's readers.  v1 ``.m3`` shard directories and
    column-layout blocks, written by older versions, do not open: they
    raise :class:`~repro.api.sharded.LegacyFormatError`, which names
    ``m3 convert SRC DST --codec raw|zlib``, the one door they come in
    through; so does a single v1 ``.m3`` file.  Every handle is read-only:
    rows are added by appending.
``shard`` (appendable)
    Sharded directories in the current form are also *appendable*:
    ``Dataset.append`` streams rows into an open tail shard and commits a new
    manifest generation (``manifest.<gen>.json`` + ``CURRENT``, atomic
    renames), while open handles keep serving the generation they were
    opened at, so readers mid-scan never see the manifest flip.
    ``Session.refresh`` opts a handle into the latest generation; ``m3
    traind`` tails committed generations and republishes freshly trained
    models.  A snapshot opened from an earlier one (``refresh``) shares
    its state for every sealed shard both list with
    the same manifest entry and whose file still shows the header it was
    checked under: path, header and decoded labels.  Only the tail and new
    shards are opened, checked and decoded, so a refresh after an append
    costs the append's shards, not the dataset's.

Locations are written as URI-style *specs* — ``"mmap:///data/train.m3"``,
``"shard:///data/train/"``, ``"memory://train"`` — or as bare filesystem
paths, in which case the scheme is inferred (directory → ``shard``,
otherwise ``mmap``, so a bare path creates a one-shard dataset and a bare
path to a regular file is refused as the legacy ``.m3`` file it is).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.api.chunks import ReadaheadHinter
from repro.api.sharded import (
    CURRENT_NAME,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ShardAppender,
    ShardedMatrix,
    ShardManifest,
    open_sharded_matrix,
    read_manifest,
    write_sharded_dataset,
)

SpecLike = Union[str, Path]


@dataclass(frozen=True)
class DatasetSpec:
    """A parsed dataset spec: a backend scheme plus a backend location."""

    scheme: str
    location: str

    def __str__(self) -> str:
        return f"{self.scheme}://{self.location}"


def parse_spec(spec: SpecLike) -> DatasetSpec:
    """Parse ``spec`` into a :class:`DatasetSpec`.

    ``Path`` objects and plain strings without a scheme infer the backend from
    the filesystem: an existing directory (or a trailing separator, or a
    directory containing a shard manifest) selects ``shard``; everything else
    selects ``mmap``.
    """
    if isinstance(spec, DatasetSpec):
        return spec
    if isinstance(spec, Path):
        return DatasetSpec(scheme=_infer_path_scheme(str(spec)), location=str(spec))
    if not isinstance(spec, str):
        raise TypeError(f"dataset spec must be a str or Path, got {type(spec).__name__}")
    if "://" in spec:
        scheme, _, location = spec.partition("://")
        scheme = scheme.lower()
        if not location:
            raise ValueError(f"dataset spec {spec!r} has an empty location")
        if scheme == "file":
            scheme = _infer_path_scheme(location)
        return DatasetSpec(scheme=scheme, location=location)
    return DatasetSpec(scheme=_infer_path_scheme(spec), location=spec)


def _infer_path_scheme(path_str: str) -> str:
    if path_str.endswith(("/", "\\")) or Path(path_str).is_dir():
        return "shard"
    return "mmap"


@dataclass
class StorageHandle:
    """What a backend returns from :meth:`StorageBackend.open`.

    Attributes
    ----------
    matrix:
        The raw 2-D matrix (``ndarray`` or
        :class:`~repro.api.sharded.ShardedMatrix`).  The :class:`Dataset`
        wraps it in an :class:`~repro.core.mmap_matrix.MmapMatrix` for trace
        recording.
    labels:
        Optional label vector aligned with the matrix rows.
    metadata:
        Backend-specific facts (shard count, file size, …) surfaced through
        ``Dataset.info()``.
    closer:
        Optional callable releasing backend resources.
    """

    matrix: Any
    labels: Optional[np.ndarray] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    closer: Optional[Any] = None


def _reject_options(scheme: str, options: Dict[str, Any]) -> None:
    """Fail loudly on options a backend does not understand."""
    if options:
        raise TypeError(
            f"unexpected options for {scheme} backend: {sorted(options)}"
        )


class StorageBackend(abc.ABC):
    """Protocol implemented by every storage backend."""

    #: URI scheme the backend registers under.
    scheme: str = ""

    @abc.abstractmethod
    def open(self, location: str) -> StorageHandle:
        """Open the dataset at ``location`` (read-only) and return its raw pieces."""

    def open_from(
        self, location: str, previous: Optional[StorageHandle]
    ) -> StorageHandle:
        """:meth:`open`, from ``previous`` — a handle, open or closed, on an
        earlier snapshot of ``location``, or ``None``.

        A backend with snapshots may build the new handle on state the old
        one kept, which both then share.  The default opens afresh.
        """
        return self.open(location)

    @abc.abstractmethod
    def create(
        self,
        location: str,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        """Materialise ``data`` (and ``labels``) at ``location``; return it."""

    @abc.abstractmethod
    def info(self, location: str) -> Dict[str, Any]:
        """Describe the dataset at ``location`` without loading its data."""

    @abc.abstractmethod
    def exists(self, location: str) -> bool:
        """Whether a dataset exists at ``location``."""


class MemoryBackend(StorageBackend):
    """Named in-memory datasets, scoped to the owning :class:`Session`."""

    scheme = "memory"

    def __init__(self) -> None:
        self._store: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}

    def open(self, location: str) -> StorageHandle:
        if location not in self._store:
            raise KeyError(
                f"no in-memory dataset named {location!r}; create it with "
                f"Session.create('memory://{location}', data, labels)"
            )
        data, labels = self._store[location]
        return StorageHandle(
            matrix=data,
            labels=labels,
            metadata={
                "backend": self.scheme,
                "rows": int(data.shape[0]),
                "cols": int(data.shape[1]),
                "dtype": str(data.dtype),
                "has_labels": labels is not None,
                "nbytes": int(data.nbytes),
            },
        )

    def create(
        self,
        location: str,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        _reject_options(self.scheme, options)
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (data.shape[0],):
                raise ValueError(
                    f"labels must have shape ({data.shape[0]},), got {labels.shape}"
                )
        self._store[location] = (data, labels)
        return location

    def info(self, location: str) -> Dict[str, Any]:
        return self.open(location).metadata

    def exists(self, location: str) -> bool:
        return location in self._store


class ShardedBackend(StorageBackend):
    """A directory of M3 shard files tiling the matrix row-wise."""

    scheme = "shard"

    def _metadata(self, location: str, manifest: ShardManifest) -> Dict[str, Any]:
        """The facts ``open`` and ``info`` both report."""
        return {
            "backend": self.scheme,
            "path": str(Path(location)),
            "rows": manifest.rows,
            "cols": manifest.cols,
            "dtype": str(manifest.dtype),
            "has_labels": manifest.has_labels,
            "nbytes": manifest.rows * manifest.cols * manifest.dtype.itemsize,
            "num_shards": len(manifest.shards),
            "codec": manifest.codec,
            "block_rows": manifest.block_rows,
            "storage_dtype": str(manifest.storage_dtype),
            "compressed_bytes": manifest.compressed_bytes,
            "compression_ratio": manifest.ratio,
        }

    def open(self, location: str) -> StorageHandle:
        # The manifest decides whether the shards are mapped or decoded; the
        # matrix is a snapshot of the latest committed generation.
        return self._handle(location, open_sharded_matrix(Path(location)))

    def open_from(
        self, location: str, previous: Optional[StorageHandle]
    ) -> StorageHandle:
        """The latest generation, sharing ``previous``'s state for every
        sealed shard it lists unchanged (:meth:`ShardedMatrix.refresh`)."""
        earlier = None if previous is None else previous.matrix
        if not isinstance(earlier, ShardedMatrix) or earlier.directory != Path(location):
            return self.open(location)
        return self._handle(location, earlier.refresh())

    def _handle(self, location: str, matrix: ShardedMatrix) -> StorageHandle:
        # Every open maps its shards afresh; each new map is marked
        # MADV_SEQUENTIAL once, the order every algorithm of the paper scans
        # its rows in (decoded shards have no map and take no hint).
        hinter = ReadaheadHinter(matrix)
        hinter.advise_sequential()
        hinter.close()
        metadata = self._metadata(location, matrix.manifest)
        metadata["generation"] = matrix.generation
        # One file per shard: the parallel chunk pipeline sizes its reader
        # pool from this layout, and the readahead hinter's posix_fadvise
        # fallback targets these files directly.
        metadata["shard_paths"] = [str(path) for path in matrix.shard_paths]
        return StorageHandle(
            matrix=matrix,
            # Labels stay a lazy per-shard view: in-core consumers materialise
            # them once via np.asarray, the streaming engine slices per chunk.
            labels=matrix.lazy_labels,
            metadata=metadata,
            closer=matrix.close,
        )

    def create(
        self,
        location: str,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        # Block geometry and storage dtype are set through
        # write_sharded_dataset or m3 convert; no writer takes a layout.
        shard_rows = options.pop("shard_rows", None)
        codec = options.pop("codec", None)
        _reject_options(self.scheme, options)
        data = np.asarray(data)
        if not shard_rows:
            # Default to ~4 shards so small datasets still exercise stitching.
            shard_rows = max(1, -(-int(data.shape[0]) // 4))
        write_sharded_dataset(Path(location), data, labels, shard_rows=shard_rows, codec=codec)
        return location

    def info(self, location: str) -> Dict[str, Any]:
        manifest = read_manifest(Path(location))
        info = self._metadata(location, manifest)
        info["format_version"] = MANIFEST_VERSION
        info["shard_ratios"] = [
            {"filename": s.filename, "ratio": s.ratio} for s in manifest.shards
        ]
        if manifest.generation > 0 or manifest.tail_shard is not None:
            # Appendable dataset: surface the generation protocol state.
            tail = manifest.tail_shard
            info.update(
                {
                    "generation": manifest.generation,
                    "committed_rows": manifest.rows,
                    "tail_shard": None if tail is None else tail.filename,
                    "tail_rows": 0 if tail is None else tail.rows,
                    "tail_sealed": tail is None,
                }
            )
        return info

    def exists(self, location: str) -> bool:
        directory = Path(location)
        return (directory / MANIFEST_NAME).is_file() or (
            directory / CURRENT_NAME
        ).is_file()

    def append(
        self,
        location: str,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        trace: Any = None,
    ) -> int:
        """Append rows to the dataset, committing one new generation.

        Returns the committed generation number.  Open handles keep serving
        the generation they were opened at; ``Session.refresh`` from such a
        handle sees the new rows and re-reads only the shards this call
        wrote (the tail and any new shard).  Each call opens a fresh
        appender: one manifest read, plus a read of the tail file that
        copies its full blocks still coded and decodes only the short last
        block.  For sustained streams, hold a
        :class:`~repro.api.sharded.ShardAppender` directly and skip both.
        """
        appender = ShardAppender(Path(location), trace=trace)
        return appender.append(data, labels).generation


class MmapBackend(ShardedBackend):
    """The paper's memory-mapped matrix: a sharded dataset of one raw shard.

    Everything but :meth:`create` is the shard backend's — open, refresh,
    info, verify and append — and the matrix is a one-shard
    :class:`~repro.api.sharded.ShardedMatrix` mapped zero-copy.
    """

    scheme = "mmap"

    def create(
        self,
        location: str,
        data: np.ndarray,
        labels: Optional[np.ndarray] = None,
        **options: Any,
    ) -> str:
        _reject_options(self.scheme, options)
        data = np.asarray(data)
        write_sharded_dataset(
            Path(location), data, labels, shard_rows=max(1, int(data.shape[0]))
        )
        return location


#: The backend classes, keyed by URI scheme.
BACKEND_REGISTRY: Dict[str, Type[StorageBackend]] = {
    MemoryBackend.scheme: MemoryBackend,
    MmapBackend.scheme: MmapBackend,
    ShardedBackend.scheme: ShardedBackend,
}


def make_backend(scheme: str) -> StorageBackend:
    """Instantiate the backend for ``scheme``."""
    try:
        backend_class = BACKEND_REGISTRY[scheme]
    except KeyError:
        known = ", ".join(sorted(BACKEND_REGISTRY))
        raise ValueError(
            f"unknown storage backend scheme {scheme!r} (known: {known})"
        ) from None
    return backend_class()
