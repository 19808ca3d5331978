"""Regression tests: error paths in the chunk pipeline return their leases.

These pin the two leaks the concurrency analyzer surfaced: a failed gather
inside ``read_chunk`` propagated before handing its buffer back, and chunks
parked out-of-order past a failed index were dropped at shutdown with their
leases still checked out.  Either way the bounded buffer ring ran dry and
later readers blocked forever.  The suite-wide ``LeaseLeakDetector`` fixture
(``tests/conftest.py``) enforces the same invariant over every other test.
"""

import numpy as np
import pytest

from repro.analysis.runtime import LEASES
from repro.api.chunks import ChunkStreamError, open_chunk_stream
from repro.api.sharded import ShardedMatrix, write_sharded_dataset


@pytest.fixture()
def sharded(tmp_path):
    """A 60x4 sharded dataset whose 9-row chunks straddle 13-row shards."""
    X = np.arange(240.0).reshape(60, 4)
    y = np.arange(60) % 3
    write_sharded_dataset(tmp_path / "ds", X, y, shard_rows=13)
    return ShardedMatrix(tmp_path / "ds")


def failing_gather(explode_at):
    """A ``gather_into`` wrapper that fails for ranges starting at/after a row."""
    real = ShardedMatrix.gather_into

    def gather(self, start, stop, out):
        if start >= explode_at:
            raise OSError("truncated shard")
        return real(self, start, stop, out)

    return gather


class TestGatherFailureReleasesLease:
    @pytest.mark.parametrize("io_workers", [1, 4])
    def test_no_outstanding_leases_after_stream_error(
        self, sharded, monkeypatch, io_workers
    ):
        monkeypatch.setattr(ShardedMatrix, "gather_into", failing_gather(0))
        with pytest.raises(ChunkStreamError):
            with open_chunk_stream(
                sharded,
                labels=sharded.lazy_labels,
                chunk_rows=9,
                align_shards=False,
                io_workers=io_workers,
            ) as stream:
                list(stream)
        assert LEASES.outstanding() == []

    @pytest.mark.parametrize("io_workers", [1, 4])
    def test_midstream_failure_drains_parked_chunks(self, sharded, monkeypatch, io_workers):
        # Fail a middle range: with a wide pool, readers past the failed
        # index finish their chunks and park them in the reorder buffer,
        # which must be drained (leases returned) at shutdown.
        monkeypatch.setattr(ShardedMatrix, "gather_into", failing_gather(27))
        delivered = []
        with pytest.raises(ChunkStreamError):
            with open_chunk_stream(
                sharded,
                labels=sharded.lazy_labels,
                chunk_rows=9,
                align_shards=False,
                io_workers=io_workers,
            ) as stream:
                for chunk in stream:
                    delivered.append((chunk.start, chunk.stop))
                    chunk.release()
        # Everything before the failure was still delivered in plan order
        # ((27, 36) sits inside one shard, so it never gathers and still
        # streams through; (36, 45) is the first straddling range to fail).
        assert delivered == [(0, 9), (9, 18), (18, 27), (27, 36)]
        assert LEASES.outstanding() == []

    def test_consumer_abandoning_stream_returns_leases(self, sharded):
        # A consumer that stops mid-stream (break, exception in its own
        # code) must not strand the chunks still in flight.
        with open_chunk_stream(
            sharded,
            labels=sharded.lazy_labels,
            chunk_rows=9,
            align_shards=False,
            io_workers=2,
        ) as stream:
            next(stream)
        assert LEASES.outstanding() == []
