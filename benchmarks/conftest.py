"""Shared device models and reporting helpers for the benchmark suite.

The benches here gate the stack's own layers (pass file paths explicitly:
``pytest --benchmark-disable benchmarks/bench_backends.py``).  The paper's
figures and table are not benches any more: ``m3 reproduce`` regenerates and
checks them (``REPRODUCTION.md``).
"""

from __future__ import annotations

import math
import time

from repro.api.sharded import ShardedMatrix
from repro.vmem.disk import DiskProfile


def emit(title: str, body: str) -> None:
    """Print a benchmark's reproduced table under a clear heading."""
    print(f"\n=== {title} ===")
    print(body)


def assert_metrics_clean(payload: dict, prefix: str = "") -> None:
    """No emitted metric may be NaN or negative, at any nesting level.

    ``None`` is an honest "undefined" and passes.  Every bench calls this on
    its ``BENCH_*.json`` payload before writing it, so a pipeline that
    reports nonsense accounting fails its own bench.
    """
    for key, value in payload.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            assert_metrics_clean(value, prefix=f"{label}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            assert not math.isnan(value), f"{label} is NaN"
            assert value >= 0, f"{label} is negative: {value}"


def slow_device(latency_s: float, bandwidth: float) -> DiskProfile:
    """A modelled read device: ``latency_s`` per request, ``bandwidth`` B/s.

    CI page caches make real reads free, so the throughput benches model the
    device explicitly, with the repo's own device model.
    """
    return DiskProfile(
        name=f"modelled ~{bandwidth / 1e6:.0f} MB/s device",
        read_latency_s=latency_s,
        write_latency_s=latency_s,
        sequential_read_bw=bandwidth,
        random_read_bw=bandwidth,
        sequential_write_bw=bandwidth,
        random_write_bw=bandwidth,
    )


def stall(device: DiskProfile, nbytes: int) -> None:
    """Charge one read of ``nbytes`` to ``device`` as a real ``time.sleep``.

    The sleep releases the GIL exactly like a blocking ``read(2)``, so reader
    threads overlap these stalls the way they overlap real device waits.
    """
    time.sleep(device.read_latency_s + nbytes / device.sequential_read_bw)


class ThrottledMatrix(ShardedMatrix):
    """Shards behind ``device``: a read pays for the bytes it takes off storage.

    Mapped shards charge a gather its logical bytes; decoded shards charge
    only the coded bytes fetched, once, in :meth:`fetch_compressed`, which
    every decoded range read (slice or ``gather_into``) runs through.
    """

    def __init__(self, directory, device: DiskProfile) -> None:
        super().__init__(directory)
        self.device = device

    def _stored_bytes(self, start: int, stop: int) -> int:
        rows = max(0, min(stop, self.manifest.rows) - max(0, start))
        return rows * self.manifest.cols * self.dtype.itemsize

    def _gather_range(self, start, stop):
        if self.mapped:
            stall(self.device, self._stored_bytes(start, stop))
        return super()._gather_range(start, stop)

    def gather_into(self, start, stop, out):
        if self.mapped:
            stall(self.device, self._stored_bytes(start, stop))
        return super().gather_into(start, stop, out)

    def fetch_compressed(self, start, stop):
        fetched = super().fetch_compressed(start, stop)
        stall(self.device, fetched.compressed_bytes)
        return fetched


def stream_pairs(stream):
    """``(X, y)`` per chunk of ``stream``, every lease handed back.

    The training loop the streaming engine runs, for benches that need a
    stream the engine does not configure (unaligned plans, a shared ring).
    """
    with stream:
        for chunk in stream:
            try:
                yield chunk.X, chunk.y
            finally:
                chunk.release()
