"""The one durability step of every file the package rewrites in place.

A file is never written where readers find it: its bytes go to a
same-directory tmp file, which :func:`durable_replace` fsyncs, renames onto
the final path and makes durable with a directory fsync.  A crash at any
point leaves either the previous file or the new one, never a torn one.
Shard appends and manifest commits (:mod:`repro.api.sharded`) and model
saves (:func:`repro.ml.save_model`) land through it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.faults import maybe_fire

__all__ = ["durable_replace", "fsync_directory"]


def durable_replace(tmp: Path, path: Path, fault_sites: Optional[str] = None) -> None:
    """Move the finished file ``tmp`` onto ``path``: fsync, rename, fsync
    the directory.

    A rename is durable only once its directory is fsynced, so no later
    step's rename can survive a crash without this one.  ``fault_sites``
    names the caller's injection sites (``"append"`` fires
    ``append.pre_fsync``, ``append.pre_rename`` and ``append.post_rename``;
    ``None`` fires none): a fault before the rename leaves the previous
    ``path`` intact (``tmp`` is garbage a later write overwrites), one after
    it models a crash after this step, before the caller's next.
    """
    with tmp.open("r+b") as handle:
        if fault_sites:
            maybe_fire(f"{fault_sites}.pre_fsync", str(path))
        os.fsync(handle.fileno())
    if fault_sites:
        maybe_fire(f"{fault_sites}.pre_rename", str(path))
    os.replace(tmp, path)
    fsync_directory(path.parent)
    if fault_sites:
        maybe_fire(f"{fault_sites}.post_rename", str(path))


def fsync_directory(directory: Path) -> None:
    """Make the renames and unlinks done in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
