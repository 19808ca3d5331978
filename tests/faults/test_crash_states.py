"""Every crash state of one append: the commit protocol checked by enumeration.

The crash model is the rename-durability one of Pillai et al., "All File
Systems Are Not Created Equal" (OSDI 2014): an fsynced file's bytes survive
a crash, and a rename survives for certain only once its directory has been
fsynced — until then each such rename may or may not survive, independently
of the others.  A shim standing in for ``os`` inside
:mod:`repro.api.sharded` and :mod:`repro.durable` (the fsync, rename and
directory fsync step every file lands through) records every fsync, rename
and directory fsync of one ``ShardAppender.append``.  Every prefix of that
log, with every subset of the renames no directory fsync covers yet, is
materialised as a directory of its own and must:

* open at generation ``g`` or ``g+1`` — ``g+1`` exactly when the
  ``CURRENT`` rename survived, and always once ``append`` had returned;
* read every generation bit-identically to when it was committed;
* pass ``verify_dataset`` with ``[]`` at every generation;
* take a fresh ``ShardAppender``, never refused as needing manual repair,
  whose appends seal two more shards without overwriting a committed one.

Raw and zlib datasets, each under three appends: one that extends the tail,
one that seals it and starts a new shard, and the first append onto a static
generation-0 dataset.
"""

from __future__ import annotations

import itertools
import os
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from repro import durable
from repro.api import Session, sharded
from repro.api.sharded import (
    ShardAppender,
    manifest_generation,
    open_sharded_matrix,
    read_manifest,
    verify_dataset,
    write_sharded_dataset,
)

SHARD_ROWS = 10
BLOCK_ROWS = 4

#: kind -> (rows of the static dataset, rows of each append before the
#: enumerated one, rows of the enumerated append).  ``extend`` grows a
#: 5-row tail to 8 rows, ``seal`` fills a 7-row tail and starts a 3-row
#: shard, ``first`` starts a shard beside the static dataset's sealed ones.
KINDS = {
    "extend": (12, [5], 3),
    "seal": (12, [5, 2], 6),
    "first": (12, [], 5),
}


def _rows(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3)), rng.integers(0, 3, n).astype(np.int64)


class _DurabilityLog:
    """Stands in for ``os`` in :mod:`repro.api.sharded` and
    :mod:`repro.durable`; logs every fsync, rename and directory fsync with
    the bytes the file held at that point."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.events = []

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        os.fsync(fd)
        status = os.fstat(fd)
        if stat.S_ISDIR(status.st_mode):
            self.events.append(("dirsync",))
            return
        path = next(
            p for p in self.directory.iterdir() if p.stat().st_ino == status.st_ino
        )
        self.events.append(("fsync", path.name, path.read_bytes()))

    def replace(self, src, dst):
        data = Path(src).read_bytes()
        os.replace(src, dst)
        self.events.append(("rename", Path(src).name, Path(dst).name, data))


def _snapshot(directory: Path):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _generations(directory: Path, last: int):
    snapshots = {}
    for generation in range(last + 1):
        with open_sharded_matrix(directory, generation=generation) as matrix:
            snapshots[generation] = (
                np.array(matrix[:], copy=True),
                np.array(matrix.read_labels(), copy=True),
            )
    return snapshots


def _recorded_append(tmp_path, codec, kind, monkeypatch):
    """Build ``kind``'s dataset, then run and log its enumerated append.

    Returns the directory's files before the append, the log, the
    generation ``g`` before it, and every generation's rows and labels as
    committed (``g+1`` included).
    """
    static, earlier, rows = KINDS[kind]
    directory = tmp_path / "recorded"
    X, y = _rows(static, seed=0)
    write_sharded_dataset(
        directory, X, y, shard_rows=SHARD_ROWS, codec=codec, block_rows=BLOCK_ROWS
    )
    for seed, count in enumerate(earlier, start=1):
        ShardAppender(directory, shard_rows=SHARD_ROWS).append(*_rows(count, seed))
    generation = manifest_generation(directory)
    before = _snapshot(directory)
    appender = ShardAppender(directory, shard_rows=SHARD_ROWS)
    log = _DurabilityLog(directory)
    with monkeypatch.context() as patch:
        patch.setattr(sharded, "os", log)
        patch.setattr(durable, "os", log)
        appender.append(*_rows(rows, seed=99))
    return before, log.events, generation, _generations(directory, generation + 1)


def _crash_states(before, events):
    """Yield ``(label, files, current_survived, returned)`` for every prefix of
    ``events`` and every subset of its renames no directory fsync covers."""
    for end in range(len(events) + 1):
        prefix = events[:end]
        synced = max((i for i, e in enumerate(prefix) if e[0] == "dirsync"), default=-1)
        open_renames = [
            i for i, e in enumerate(prefix) if e[0] == "rename" and i > synced
        ]
        for survivors in itertools.product((False, True), repeat=len(open_renames)):
            survived = dict(zip(open_renames, survivors))
            files = dict(before)
            current_survived = False
            for index, event in enumerate(prefix):
                if event[0] == "fsync":
                    files[event[1]] = event[2]
                elif event[0] == "rename":
                    _, src, dst, data = event
                    if survived.get(index, True):
                        files.pop(src, None)
                        files[dst] = data
                        current_survived |= dst == sharded.CURRENT_NAME
                    else:
                        # The rename is lost: the tmp file keeps its bytes.
                        files[src] = data
            lost = [events[i][2] for i, kept in survived.items() if not kept]
            label = f"after {end}/{len(events)} events, lost renames {lost}"
            yield label, files, current_survived, end == len(events)


def _check_state(directory, generation, committed, current_survived, returned):
    opened = manifest_generation(directory)
    assert opened in (generation, generation + 1), f"opens at {opened}"
    assert (opened == generation + 1) == current_survived, (
        f"opens at {opened}, CURRENT rename survived: {current_survived}"
    )
    if returned:
        assert opened == generation + 1, "a returned append rolled back"
    manifest = read_manifest(directory)
    assert manifest.generation == opened
    for g, (rows, labels) in _generations(directory, opened).items():
        assert rows.tobytes() == committed[g][0].tobytes(), f"generation {g} rows"
        assert labels.tobytes() == committed[g][1].tobytes(), f"generation {g} labels"
        assert verify_dataset(directory, generation=g) == [], f"generation {g}"

    sealed = {
        s.filename: (directory / s.filename).read_bytes()
        for s in manifest.shards
        if s.sealed
    }
    appender = ShardAppender(directory, shard_rows=SHARD_ROWS)
    more = [_rows(SHARD_ROWS, seed=200 + i) for i in range(2)]
    for X, y in more:
        appender.append(X, y)
    final = read_manifest(directory)
    assert sum(s.sealed for s in final.shards) == len(sealed) + 2
    for name, data in sealed.items():
        assert (directory / name).read_bytes() == data, f"{name} overwritten"
    assert verify_dataset(directory) == []
    expected = committed[opened]
    with open_sharded_matrix(directory) as matrix:
        np.testing.assert_array_equal(
            np.array(matrix[:], copy=True),
            np.concatenate([expected[0]] + [X for X, _ in more]),
        )
        np.testing.assert_array_equal(
            matrix.read_labels(), np.concatenate([expected[1]] + [y for _, y in more])
        )
    for g, (rows, _labels) in _generations(directory, opened).items():
        assert rows.tobytes() == committed[g][0].tobytes(), f"generation {g} moved"


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("codec", [None, "zlib"])
def test_every_crash_state_opens_one_committed_generation(
    tmp_path, monkeypatch, codec, kind
):
    before, events, generation, committed = _recorded_append(
        tmp_path, codec, kind, monkeypatch
    )
    failures, states = [], 0
    for label, files, current_survived, returned in _crash_states(before, events):
        directory = tmp_path / f"state-{states}"
        directory.mkdir()
        for name, data in files.items():
            (directory / name).write_bytes(data)
        try:
            _check_state(directory, generation, committed, current_survived, returned)
        except Exception as error:  # every failing state is reported, not just the first
            failures.append(f"{label}: {error!r}")
        shutil.rmtree(directory)
        states += 1
    assert not failures, (
        f"{len(failures)} of {states} crash states fail:\n" + "\n".join(failures)
    )


# The earlier protocol (no directory fsync, a manifest.json mirror written
# after CURRENT, a manifest.0.json snapshot on the first append) failed 216
# of the 468 states the test above builds for it; each test below pins one
# of its distinct faults.


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_no_rename_can_survive_without_the_ones_before_it(tmp_path, monkeypatch, kind):
    # Without a directory fsync after each rename, CURRENT's rename could
    # survive a crash that lost the tail's, a new shard's or the generation
    # manifest's: a generation that cannot be opened.
    _, events, _, _ = _recorded_append(tmp_path, "zlib", kind, monkeypatch)
    renames = [i for i, event in enumerate(events) if event[0] == "rename"]
    assert renames and all(events[i + 1] == ("dirsync",) for i in renames[:-1])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_returned_append_is_durable(tmp_path, monkeypatch, kind):
    # Without a directory fsync after CURRENT's rename, an append that
    # returned could roll back in a crash.
    _, events, _, _ = _recorded_append(tmp_path, "zlib", kind, monkeypatch)
    assert events[-2][0] == "rename" and events[-2][2] == sharded.CURRENT_NAME
    assert events[-1] == ("dirsync",)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_append_writes_only_shards_its_manifest_and_current(
    tmp_path, monkeypatch, kind
):
    # A manifest.json mirror written after CURRENT could survive a crash
    # that lost CURRENT's rename, and so could the first append's
    # manifest.0.json: generation 0 then no longer opened.
    before, events, generation, _ = _recorded_append(
        tmp_path, "zlib", kind, monkeypatch
    )
    written = {event[2] for event in events if event[0] == "rename"}
    manifest = f"manifest.{generation + 1}.json"
    assert {name for name in written if not name.startswith("shard-")} == {
        manifest,
        sharded.CURRENT_NAME,
    }
    after = _snapshot(tmp_path / "recorded")
    assert after[sharded.MANIFEST_NAME] == before[sharded.MANIFEST_NAME]
    assert set(after) - set(before) <= written


def test_appends_probe_past_skipped_shard_names(tmp_path):
    # A crashed sealing append leaves an orphan shard file, so the next
    # append skips its name: committed shard names need not be 0..n-1.
    # Rename the last shard as such a skip leaves it, then seal more.
    directory = tmp_path / "ds"
    X, y = _rows(12, seed=0)
    write_sharded_dataset(directory, X, y, shard_rows=SHARD_ROWS)
    manifest_path = directory / sharded.MANIFEST_NAME
    manifest_path.write_text(
        manifest_path.read_text().replace("shard-00001.m3b", "shard-00002.m3b")
    )
    os.replace(directory / "shard-00001.m3b", directory / "shard-00002.m3b")
    committed = (directory / "shard-00002.m3b").read_bytes()
    more = [_rows(SHARD_ROWS, seed=seed) for seed in (1, 2)]
    appender = ShardAppender(directory, shard_rows=SHARD_ROWS)
    for rows, labels in more:
        appender.append(rows, labels)
    assert (directory / "shard-00002.m3b").read_bytes() == committed
    with open_sharded_matrix(directory) as matrix:
        np.testing.assert_array_equal(
            np.array(matrix[:], copy=True), np.concatenate([X] + [r for r, _ in more])
        )
    assert verify_dataset(directory) == []


def _outcome(dataset_of):
    """What opening and reading a dataset gives: its generation, rows and
    labels as bytes, or the type of the error that refused it."""
    try:
        with dataset_of() as dataset:
            return (
                dataset.generation,
                np.array(dataset.matrix[:], copy=True).tobytes(),
                np.asarray(dataset.labels).tobytes(),
            )
    except Exception as error:  # the refusal's type is the outcome
        return type(error)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("codec", [None, "zlib"])
def test_every_crash_state_refreshes_as_a_fresh_open(tmp_path, monkeypatch, codec, kind):
    # A reader that held generation g across the crash refreshes from that
    # snapshot, keeping the state of every sealed shard whose file still
    # shows the header it checked.  Whatever the crash left, the refresh must
    # read what a fresh open reads, or be refused the same way.
    before, events, generation, committed = _recorded_append(
        tmp_path, codec, kind, monkeypatch
    )
    failures, states = [], 0
    for label, files, _current_survived, _returned in _crash_states(before, events):
        directory = tmp_path / f"state-{states}"
        directory.mkdir()
        for name, data in before.items():
            (directory / name).write_bytes(data)
        spec = f"shard://{directory}"
        with Session() as session, Session() as other:
            held = session.open(spec)
            # The state lands as the append left it: a file it changed is a
            # new file, the held snapshot's stay as they were.
            for name, data in files.items():
                if before.get(name) != data:
                    (directory / f"{name}.state").write_bytes(data)
                    os.replace(directory / f"{name}.state", directory / name)
            try:
                fresh = _outcome(lambda: other.open(spec))
                refreshed = _outcome(lambda: session.refresh(held))
                assert refreshed == fresh, "refresh and fresh open differ"
                assert isinstance(fresh, tuple), f"refused: {fresh.__name__}"
                rows, labels = committed[generation]
                assert (held.generation, np.array(held.matrix[:]).tobytes(),
                        np.asarray(held.labels).tobytes()) == (
                    generation, rows.tobytes(), labels.tobytes()
                ), f"the held generation {generation} moved"
            except Exception as error:  # every failing state is reported
                failures.append(f"{label}: {error!r}")
            held.close()
        shutil.rmtree(directory)
        states += 1
    assert not failures, (
        f"{len(failures)} of {states} crash states fail:\n" + "\n".join(failures)
    )


class _UnlinkLog(_DurabilityLog):
    """The durability log, with every unlink and shard write logged too."""

    def unlink(self, path):
        os.unlink(path)
        self.events.append(("unlink", Path(path).name))

    def shard_writer(self, write):
        def logged(path, *args, **kwargs):
            self.events.append(("write", Path(path).name))
            return write(path, *args, **kwargs)

        return logged


def _logged_create(directory, monkeypatch):
    log = _UnlinkLog(directory)
    with monkeypatch.context() as patch:
        patch.setattr(sharded, "os", log)
        patch.setattr(durable, "os", log)
        patch.setattr(
            sharded, "BlockedMatrixWriter", log.shard_writer(sharded.BlockedMatrixWriter)
        )
        write_sharded_dataset(directory, *_rows(25, seed=5), shard_rows=SHARD_ROWS)
    first_write = next(i for i, event in enumerate(log.events) if event[0] == "write")
    return log.events[:first_write]


def test_a_recreate_drops_generation_state_durably_before_any_shard_write(
    tmp_path, monkeypatch
):
    # Re-creating an appended dataset unlinks CURRENT and the numbered
    # manifests, then overwrites the shards in place.  Without a directory
    # fsync between, a crash could bring back a CURRENT naming a generation
    # whose shards are gone.
    directory = tmp_path / "ds"
    write_sharded_dataset(directory, *_rows(12, seed=0), shard_rows=SHARD_ROWS)
    for seed in (1, 2):
        ShardAppender(directory, shard_rows=SHARD_ROWS).append(*_rows(5, seed))
    before_writes = _logged_create(directory, monkeypatch)
    assert before_writes[-1] == ("dirsync",)
    assert sorted(before_writes[:-1]) == [
        ("unlink", sharded.CURRENT_NAME),
        ("unlink", "manifest.1.json"),
        ("unlink", "manifest.2.json"),
    ]
    assert manifest_generation(directory) == 0


def test_a_fresh_create_syncs_nothing_before_its_shards(tmp_path, monkeypatch):
    # Nothing to unlink, nothing to sync: a first create's set-up is as before.
    assert _logged_create(tmp_path / "ds", monkeypatch) == []
