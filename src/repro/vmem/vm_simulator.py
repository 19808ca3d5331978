"""The virtual-memory simulator.

:class:`VirtualMemorySimulator` replays an :class:`~repro.vmem.trace.AccessTrace`
(or accepts live accesses) against a configured :class:`~repro.vmem.page_cache.PageCache`
and produces the aggregate accounting — simulated wall time, I/O time, CPU
time, utilisation timeline and page cache statistics — that the benchmark
harness turns into the paper's figures.

This is the substitution for the paper's physical testbed (32 GB desktop,
OCZ PCIe SSD, 190 GB dataset): the same chunked access pattern that the real
algorithms perform on laptop-scale `numpy.memmap` data is replayed here with
the paper's RAM size and dataset sizes to obtain paper-scale runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.vmem.disk import DiskProfile, NVME_SSD, get_profile
from repro.vmem.page import PAGE_SIZE_DEFAULT
from repro.vmem.page_cache import PageCache, PageCacheConfig
from repro.vmem.readahead import AdaptiveReadAhead, NoReadAhead, ReadAheadPolicy
from repro.vmem.stats import IoStats, UtilizationSample, UtilizationTimeline
from repro.vmem.trace import AccessKind, AccessTrace


GIB = 1024 ** 3
"""One gibibyte in bytes."""


@dataclass
class VirtualMemoryConfig:
    """Full configuration of a simulated machine's memory hierarchy.

    The defaults reproduce the paper's desktop: 32 GB of RAM, a PCIe SSD,
    4 KiB pages, LRU replacement and adaptive read-ahead.  ``ram_bytes`` is
    the memory available *to the page cache*; the experiments in the paper
    treat the full 32 GB as available, and so do we.
    """

    ram_bytes: int = 32 * GIB
    page_size: int = PAGE_SIZE_DEFAULT
    readahead: Optional[ReadAheadPolicy] = None
    disk_profile: Union[str, DiskProfile] = NVME_SSD
    sample_interval_s: float = 1.0

    def resolve_disk_profile(self) -> DiskProfile:
        """Return the disk profile, resolving a name to a built-in profile."""
        if isinstance(self.disk_profile, str):
            return get_profile(self.disk_profile)
        return self.disk_profile

    def make_cache_config(self) -> PageCacheConfig:
        """Build the corresponding :class:`PageCacheConfig`."""
        return PageCacheConfig(
            ram_bytes=self.ram_bytes,
            page_size=self.page_size,
            readahead=self.readahead,
            disk_profile=self.resolve_disk_profile(),
        )


@dataclass
class SimulationResult:
    """Outcome of replaying a trace through the simulator."""

    wall_time_s: float
    io_stats: IoStats
    cache_stats_dict: dict
    timeline: UtilizationTimeline = field(default_factory=UtilizationTimeline)

    @property
    def io_utilization(self) -> float:
        """Fraction of wall time the disk was busy (0–1)."""
        return self.io_stats.io_utilization

    @property
    def cpu_utilization(self) -> float:
        """Fraction of wall time the CPU was busy (0–1)."""
        return self.io_stats.cpu_utilization


class VirtualMemorySimulator:
    """Replays memory accesses against a simulated machine.

    Examples
    --------
    >>> from repro.vmem import VirtualMemorySimulator, VirtualMemoryConfig, AccessTrace
    >>> trace = AccessTrace()
    >>> trace.record(0, 8 * 4096, cpu_cost_s=0.001)
    >>> sim = VirtualMemorySimulator(VirtualMemoryConfig(ram_bytes=1 << 20))
    >>> result = sim.run_trace(trace, file_bytes=8 * 4096)
    >>> result.wall_time_s > 0
    True
    """

    def __init__(self, config: Optional[VirtualMemoryConfig] = None) -> None:
        self.config = config or VirtualMemoryConfig()
        self.cache = PageCache(self.config.make_cache_config())
        self._cpu_time_s = 0.0
        self._io_time_s = 0.0

    # -- live access API -------------------------------------------------------

    def access(
        self,
        offset: int,
        length: int,
        kind: Union[AccessKind, str] = AccessKind.READ,
        cpu_cost_s: float = 0.0,
    ) -> float:
        """Perform a live access; returns the simulated time it took."""
        if isinstance(kind, str):
            kind = AccessKind(kind)
        io_time = self.cache.access_range(offset, length, write=(kind is AccessKind.WRITE))
        self._io_time_s += io_time
        self._cpu_time_s += cpu_cost_s
        return io_time + cpu_cost_s

    def charge_cpu(self, seconds: float) -> None:
        """Charge pure compute time not associated with a memory access."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._cpu_time_s += seconds

    @property
    def elapsed_s(self) -> float:
        """Simulated wall time so far (CPU + I/O, non-overlapping)."""
        return self._cpu_time_s + self._io_time_s

    def io_stats(self) -> IoStats:
        """Aggregate I/O statistics for the accesses performed so far."""
        disk = self.cache.disk
        return IoStats(
            bytes_read=disk.bytes_read,
            bytes_written=disk.bytes_written,
            read_requests=disk.read_requests,
            write_requests=disk.write_requests,
            io_time_s=self._io_time_s,
            cpu_time_s=self._cpu_time_s,
        )

    def reset(self) -> None:
        """Reset all time accounting and cache contents."""
        self.cache = PageCache(self.config.make_cache_config())
        self._cpu_time_s = 0.0
        self._io_time_s = 0.0

    # -- trace replay ----------------------------------------------------------

    def run_trace(
        self,
        trace: AccessTrace,
        file_bytes: Optional[int] = None,
        cold_cache: bool = True,
    ) -> SimulationResult:
        """Replay ``trace`` and return the simulated accounting.

        Parameters
        ----------
        trace:
            The access trace to replay.
        file_bytes:
            Size of the mapped file.  Defaults to the largest offset in the
            trace.  Bounds read-ahead so the simulator never prefetches past
            end-of-file.
        cold_cache:
            If true (default) the cache is emptied before replay, modelling a
            freshly-booted machine as in the paper's experiments.
        """
        if cold_cache:
            self.reset()
        if file_bytes is None:
            file_bytes = trace.max_offset
        self.cache.set_file_size(file_bytes)

        timeline = UtilizationTimeline()
        next_sample_at = self.config.sample_interval_s
        window_io = 0.0
        window_cpu = 0.0

        for record in trace:
            io_time = self.cache.access_range(
                record.offset, record.length, write=(record.kind is AccessKind.WRITE)
            )
            self._io_time_s += io_time
            self._cpu_time_s += record.cpu_cost_s
            window_io += io_time
            window_cpu += record.cpu_cost_s

            while self.elapsed_s >= next_sample_at:
                window_total = window_io + window_cpu
                timeline.add(
                    UtilizationSample(
                        time_s=next_sample_at,
                        cpu_utilization=(window_cpu / window_total) if window_total else 0.0,
                        disk_utilization=(window_io / window_total) if window_total else 0.0,
                        resident_bytes=self.cache.resident_bytes,
                    )
                )
                next_sample_at += self.config.sample_interval_s
                window_io = 0.0
                window_cpu = 0.0

        stats = self.io_stats()
        return SimulationResult(
            wall_time_s=stats.total_time_s,
            io_stats=stats,
            cache_stats_dict=self.cache.stats.as_dict(),
            timeline=timeline,
        )
