"""Virtual-memory substrate: page cache, LRU replacement, disk model.

The M3 paper relies on the operating system's virtual memory subsystem: a
memory-mapped file is paged in and out of RAM on demand, with read-ahead and
least-recently-used caching performed by the kernel.  The paper's experiments
ran on a desktop with 32 GB of RAM and a 1 TB SSD against datasets of up to
190 GB — hardware we do not have.  This package provides a deterministic,
configurable simulator of exactly that machinery so that the *shape* of the
paper's results (linear scaling with a slope change at the RAM boundary,
I/O-bound execution) can be reproduced at any scale.

The main entry point is :class:`~repro.vmem.vm_simulator.VirtualMemorySimulator`,
which combines a :class:`~repro.vmem.page_table.PageTable`, a
:class:`~repro.vmem.page_cache.PageCache` (LRU replacement, a pluggable
read-ahead window) and a :class:`~repro.vmem.disk.DiskModel`.  Access
traces can be recorded with :class:`~repro.vmem.trace.AccessTrace` and replayed
under different configurations.  The package models the machinery and
nothing else: it does not analyse traces for locality or advise on storage
geometry, because the paper's algorithms scan stored rows in sequence and
leave the tuning to the kernel.
"""

from repro.vmem.page import PAGE_SIZE_DEFAULT, Page, PageId
from repro.vmem.page_table import PageTable, PageTableEntry
from repro.vmem.replacement import LruPolicy, ReplacementPolicy
from repro.vmem.readahead import (
    AdaptiveReadAhead,
    FixedReadAhead,
    NoReadAhead,
    PipelinedReadAhead,
    ReadAheadPolicy,
)
from repro.vmem.disk import DiskModel, DiskProfile, HDD_7200RPM, NVME_SSD, SATA_SSD
from repro.vmem.page_cache import PageCache, PageCacheConfig
from repro.vmem.stats import IoStats, PageCacheStats, UtilizationSample, UtilizationTimeline
from repro.vmem.trace import AccessKind, AccessRecord, AccessTrace
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator

__all__ = [
    "PAGE_SIZE_DEFAULT",
    "Page",
    "PageId",
    "PageTable",
    "PageTableEntry",
    "ReplacementPolicy",
    "LruPolicy",
    "ReadAheadPolicy",
    "NoReadAhead",
    "FixedReadAhead",
    "AdaptiveReadAhead",
    "PipelinedReadAhead",
    "DiskModel",
    "DiskProfile",
    "SATA_SSD",
    "NVME_SSD",
    "HDD_7200RPM",
    "PageCache",
    "PageCacheConfig",
    "PageCacheStats",
    "IoStats",
    "UtilizationSample",
    "UtilizationTimeline",
    "AccessKind",
    "AccessRecord",
    "AccessTrace",
    "VirtualMemoryConfig",
    "VirtualMemorySimulator",
]
