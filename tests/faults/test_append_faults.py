"""Appender commit-step faults: a crash at any commit point leaves the
previous generation intact, an appender that saw the failure carries on as
a fresh one would, and an unrecoverable tail refuses to open with the exact
shard and committed row count named."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.sharded import (
    ShardAppender,
    manifest_generation,
    open_sharded_matrix,
    verify_dataset,
    write_sharded_dataset,
)
from repro.faults import FaultPlan, InjectedFault, set_fault_plan


def _make(rows, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((rows, cols)),
        rng.integers(0, 3, rows).astype(np.int64),
    )


def _dataset_with_tail(directory, codec=None, block_rows=None):
    """A dataset whose last shard is an unsealed, growing tail."""
    X, y = _make(12)
    write_sharded_dataset(
        directory, X, y, shard_rows=10, codec=codec, block_rows=block_rows
    )
    X2, y2 = _make(5, seed=1)
    ShardAppender(directory).append(X2, y2)
    return directory


class TestRecoveryRefusal:
    def test_failed_tail_recovery_refuses_open(self, tmp_path):
        d = _dataset_with_tail(tmp_path / "ds")
        committed = manifest_generation(d)
        set_fault_plan("append.recover")
        with pytest.raises(RuntimeError, match="dataset needs manual repair") as excinfo:
            ShardAppender(d)
        set_fault_plan(None)
        message = str(excinfo.value)
        assert "shard-" in message and "committed=" in message
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        # The refusal changed nothing: the dataset still opens read-only at
        # the committed generation, and a later appender works normally.
        assert manifest_generation(d) == committed
        assert verify_dataset(d) == []
        ShardAppender(d).append(*_make(3, seed=2))


@pytest.mark.parametrize(
    "site", ["append.pre_fsync", "append.pre_rename", "append.post_rename"]
)
@pytest.mark.parametrize("codec", [None, "zlib"])
class TestCommitStepCrashes:
    def test_crash_preserves_previous_generation(self, tmp_path, site, codec):
        # Every site fires for both codecs: the manifest's atomic commit
        # carries all three steps, and the tail file an fsync and a rename
        # of its own.
        d = _dataset_with_tail(tmp_path / "ds", codec=codec)
        generation = manifest_generation(d)
        with open_sharded_matrix(d) as matrix:
            before = np.array(matrix[:], copy=True)

        set_fault_plan(site)
        with pytest.raises(OSError):
            ShardAppender(d).append(*_make(4, seed=3))
        set_fault_plan(None)

        # Every commit step is crash-safe: the committed generation, its
        # bytes, and the scrub are all untouched…
        assert manifest_generation(d) == generation
        with open_sharded_matrix(d) as matrix:
            np.testing.assert_array_equal(np.array(matrix[:], copy=True), before)
        assert verify_dataset(d) == []

        # …and the next append recovers the tail and lands cleanly.
        manifest = ShardAppender(d).append(*_make(4, seed=4))
        assert manifest.rows == before.shape[0] + 4
        assert verify_dataset(d) == []


class _OneStepFault(FaultPlan):
    """Fires ``site`` once, at the commit step writing the file ``name``."""

    def __init__(self, site, name):
        super().__init__([])
        self.site, self.name, self.fired = site, name, False

    def fire(self, site, detail=""):
        if not self.fired and site == self.site and detail.endswith(self.name):
            self.fired = True
            raise InjectedFault(site, 1, detail)


def _generations(directory):
    """Rows and labels of every committed generation, read from disk."""
    snapshots = {}
    for generation in range(manifest_generation(directory) + 1):
        with open_sharded_matrix(directory, generation=generation) as matrix:
            snapshots[generation] = (
                np.array(matrix[:], copy=True),
                np.array(matrix.read_labels(), copy=True),
            )
    return snapshots


SITES = ["append.pre_fsync", "append.pre_rename", "append.post_rename"]
STEPS = ["tail", "manifest.<g>.json", "CURRENT"]
# Every site of every commit step, raw and zlib alike.
FAILURES = [
    (codec, step, site)
    for codec in (None, "zlib")
    for step in STEPS
    for site in SITES
]


@pytest.mark.parametrize("codec,step,site", FAILURES)
class TestFailedAppendDoesNotPoisonTheAppender:
    def test_same_instance_carries_on_like_a_fresh_appender(
        self, tmp_path, codec, step, site
    ):
        d = _dataset_with_tail(tmp_path / "ds", codec=codec, block_rows=2)
        appender = ShardAppender(d)
        generation = appender.generation
        name = {
            "tail": appender.manifest.tail_shard.filename,
            "manifest.<g>.json": f"manifest.{generation + 1}.json",
        }.get(step, step)
        before = _generations(d)
        rows_before, labels_before = before[generation]
        XA, yA = _make(4, seed=3)
        XB, yB = _make(3, seed=4)

        plan = _OneStepFault(site, name)
        set_fault_plan(plan)
        with pytest.raises(InjectedFault):
            appender.append(XA, yA)
        set_fault_plan(None)
        assert plan.fired

        # The CURRENT rename is the commit point: a failure after it left
        # batch A committed, a failure before it left A nowhere.
        a_committed = step == "manifest.json" or (
            step == "CURRENT" and site == "append.post_rename"
        )
        assert manifest_generation(d) == generation + a_committed
        after_failure = _generations(d)

        # The same instance, a different batch.
        manifest = appender.append(XB, yB)
        assert manifest.generation == generation + a_committed + 1
        assert verify_dataset(d) == []
        kept = ([XA], [yA]) if a_committed else ([], [])
        final = _generations(d)
        np.testing.assert_array_equal(
            final[manifest.generation][0], np.concatenate([rows_before, *kept[0], XB])
        )
        np.testing.assert_array_equal(
            final[manifest.generation][1], np.concatenate([labels_before, *kept[1], yB])
        )
        # No committed generation changed under the failure or the retry.
        for snapshots in (before, after_failure):
            for g, (rows, labels) in snapshots.items():
                np.testing.assert_array_equal(final[g][0], rows)
                np.testing.assert_array_equal(final[g][1], labels)
        # And a fresh appender agrees with this one about where things stand.
        fresh = ShardAppender(d)
        assert fresh.manifest == appender.manifest
