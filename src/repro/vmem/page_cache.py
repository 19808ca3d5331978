"""The simulated page cache.

This is the heart of the virtual-memory substrate: it models a fixed-size pool
of RAM pages backed by a :class:`~repro.vmem.disk.DiskModel`, with LRU
replacement and pluggable read-ahead.  Algorithms (or recorded traces) issue byte
range accesses; the cache translates them to page accesses, charges simulated
disk time for major faults, and keeps the counters needed to report hit rates
and utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.vmem.disk import DiskModel, DiskProfile, NVME_SSD
from repro.vmem.page import PAGE_SIZE_DEFAULT, Page, PageId, num_pages, pages_for_range
from repro.vmem.page_table import PageTable
from repro.vmem.readahead import AdaptiveReadAhead, ReadAheadPolicy
from repro.vmem.replacement import LruPolicy, ReplacementPolicy
from repro.vmem.stats import PageCacheStats


@dataclass
class PageCacheConfig:
    """Configuration of a simulated page cache.

    Attributes
    ----------
    ram_bytes:
        Amount of RAM available to the page cache.  The paper's machine had
        32 GB; the default here is deliberately small so unit tests exercise
        eviction without large traces.
    page_size:
        Page size in bytes (default 4 KiB, the Linux base page size).
    readahead:
        Read-ahead policy instance; defaults to Linux-like adaptive read-ahead.
    disk_profile:
        Performance profile of the backing device.
    """

    ram_bytes: int = 64 * 1024 * 1024
    page_size: int = PAGE_SIZE_DEFAULT
    readahead: Optional[ReadAheadPolicy] = None
    disk_profile: DiskProfile = NVME_SSD

    def __post_init__(self) -> None:
        if self.ram_bytes <= 0:
            raise ValueError(f"ram_bytes must be positive, got {self.ram_bytes}")
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.ram_bytes < self.page_size:
            raise ValueError(
                f"ram_bytes ({self.ram_bytes}) must hold at least one page "
                f"({self.page_size})"
            )

    @property
    def capacity_pages(self) -> int:
        """Number of pages that fit in RAM."""
        return self.ram_bytes // self.page_size


class PageCache:
    """A fixed-capacity page cache backed by a simulated disk.

    The cache exposes :meth:`access_range` (byte-range granularity, the form
    used when replaying algorithm traces) and :meth:`access_page` (single-page
    granularity).  Both return the simulated disk time incurred.
    """

    def __init__(self, config: Optional[PageCacheConfig] = None) -> None:
        self.config = config or PageCacheConfig()
        self.policy: ReplacementPolicy = LruPolicy()
        self.readahead: ReadAheadPolicy = self.config.readahead or AdaptiveReadAhead()
        self.disk = DiskModel(profile=self.config.disk_profile)
        self.page_table = PageTable()
        self.stats = PageCacheStats()
        self._pages: Dict[PageId, Page] = {}
        self._prefetched: Dict[PageId, bool] = {}
        self._tick = 0
        self._file_pages: Optional[int] = None

    # -- public API ----------------------------------------------------------

    def set_file_size(self, file_bytes: int) -> None:
        """Declare the size of the mapped file (bounds read-ahead)."""
        self._file_pages = num_pages(file_bytes, self.config.page_size)

    @property
    def capacity_pages(self) -> int:
        """Maximum number of resident pages."""
        return self.config.capacity_pages

    @property
    def resident_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident in the cache."""
        return len(self._pages) * self.config.page_size

    def is_resident(self, page_id: PageId) -> bool:
        """Whether ``page_id`` is currently cached."""
        return page_id in self._pages

    def access_range(self, offset: int, length: int, write: bool = False) -> float:
        """Access the byte range ``[offset, offset + length)``.

        Returns the simulated disk time (seconds) charged for the access.
        """
        elapsed = 0.0
        for page_id in pages_for_range(offset, length, self.config.page_size):
            elapsed += self.access_page(page_id, write=write)
        return elapsed

    def access_page(self, page_id: PageId, write: bool = False) -> float:
        """Access a single page, faulting it in if necessary.

        Returns the simulated disk time (seconds) charged for the access.
        """
        self._tick += 1
        page = self._pages.get(page_id)
        if page is not None:
            # Hit: possibly a prefetched page being used for the first time.
            if self._prefetched.pop(page_id, False):
                self.stats.prefetch_hits += 1
            page.touch(self._tick, write=write)
            self.policy.access(page)
            self.stats.hits += 1
            return 0.0
        return self._major_fault(page_id, write=write)

    def flush(self) -> float:
        """Write back all dirty pages; returns the simulated disk time."""
        elapsed = 0.0
        for page in list(self._pages.values()):
            if page.dirty:
                elapsed += self._writeback(page)
        return elapsed

    def drop_caches(self) -> None:
        """Evict every resident page (like ``echo 3 > /proc/sys/vm/drop_caches``).

        Dirty pages are written back first.
        """
        self.flush()
        for page_id in list(self._pages):
            self._evict(page_id, count_stats=False)

    def reset_stats(self) -> None:
        """Zero counters while keeping cache contents."""
        self.stats = PageCacheStats()
        self.disk.reset()

    # -- internals -------------------------------------------------------------

    def _major_fault(self, page_id: PageId, write: bool) -> float:
        elapsed = self._make_room(1)
        window = self._bounded_window(self.readahead.prefetch_window(page_id))
        # Demand page + read-ahead window are fetched in one contiguous request
        # when possible; that is what makes read-ahead amortise latency.
        fetch_ids = [page_id] + [pid for pid in window if pid not in self._pages]
        fetch_ids = self._contiguous_prefix(fetch_ids)
        elapsed += self._make_room(len(fetch_ids) - 1)
        offset = fetch_ids[0] * self.config.page_size
        nbytes = len(fetch_ids) * self.config.page_size
        elapsed += self.disk.read(offset, nbytes)

        for index, pid in enumerate(fetch_ids):
            page = Page(page_id=pid, load_tick=self._tick, last_access_tick=self._tick)
            self._insert(page)
            if index == 0:
                page.touch(self._tick, write=write)
                self.stats.major_faults += 1
            else:
                # Prefetched pages have not been demanded yet.
                page.access_count = 0
                self._prefetched[pid] = True
                self.stats.prefetched_pages += 1
        return elapsed

    def _bounded_window(self, window: List[PageId]) -> List[PageId]:
        if self._file_pages is None:
            return window
        return [pid for pid in window if 0 <= pid < self._file_pages]

    @staticmethod
    def _contiguous_prefix(page_ids: List[PageId]) -> List[PageId]:
        """Keep only the contiguous run starting at the demand page."""
        if not page_ids:
            return page_ids
        result = [page_ids[0]]
        for pid in page_ids[1:]:
            if pid == result[-1] + 1:
                result.append(pid)
            else:
                break
        return result

    def _insert(self, page: Page) -> None:
        if page.page_id in self._pages:
            return
        self._pages[page.page_id] = page
        self.policy.insert(page)
        self.page_table.record_load(page)

    def _make_room(self, needed: int) -> float:
        """Evict pages until ``needed`` new pages fit; returns writeback time."""
        elapsed = 0.0
        while len(self._pages) + needed > self.capacity_pages and self._pages:
            victim_id = self.policy.victim()
            elapsed += self._evict(victim_id)
        return elapsed

    def _evict(self, page_id: PageId, count_stats: bool = True) -> float:
        page = self._pages.pop(page_id, None)
        self.policy.remove(page_id)
        self._prefetched.pop(page_id, None)
        if page is None:
            return 0.0
        elapsed = 0.0
        if page.dirty:
            elapsed += self._writeback(page)
        self.page_table.record_eviction(page_id)
        if count_stats:
            self.stats.evictions += 1
        return elapsed

    def _writeback(self, page: Page) -> float:
        offset = page.page_id * self.config.page_size
        elapsed = self.disk.write(offset, self.config.page_size)
        page.dirty = False
        self.stats.writebacks += 1
        return elapsed
