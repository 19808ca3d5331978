"""Tests for the simulated page cache."""

import pytest

from repro.vmem.page_cache import PageCache, PageCacheConfig
from repro.vmem.readahead import FixedReadAhead, NoReadAhead


def make_cache(pages: int = 8, page_size: int = 4096, readahead=None):
    config = PageCacheConfig(
        ram_bytes=pages * page_size,
        page_size=page_size,
        readahead=readahead or NoReadAhead(),
    )
    return PageCache(config)


class TestPageCacheConfig:
    def test_capacity_pages(self):
        config = PageCacheConfig(ram_bytes=10 * 4096, page_size=4096)
        assert config.capacity_pages == 10

    def test_ram_smaller_than_page_rejected(self):
        with pytest.raises(ValueError):
            PageCacheConfig(ram_bytes=100, page_size=4096)

    def test_nonpositive_ram_rejected(self):
        with pytest.raises(ValueError):
            PageCacheConfig(ram_bytes=0)


class TestPageCacheBasics:
    def test_first_access_is_major_fault(self):
        cache = make_cache()
        elapsed = cache.access_page(0)
        assert elapsed > 0
        assert cache.stats.major_faults == 1
        assert cache.stats.hits == 0

    def test_second_access_is_hit(self):
        cache = make_cache()
        cache.access_page(0)
        elapsed = cache.access_page(0)
        assert elapsed == 0.0
        assert cache.stats.hits == 1

    def test_access_range_touches_every_page(self):
        cache = make_cache()
        cache.access_range(0, 3 * 4096)
        assert cache.resident_pages == 3
        assert cache.stats.major_faults == 3

    def test_eviction_when_capacity_exceeded(self):
        cache = make_cache(pages=4)
        for page_id in range(6):
            cache.access_page(page_id)
        assert cache.resident_pages <= 4
        assert cache.stats.evictions >= 2

    def test_lru_evicts_oldest_untouched_page(self):
        cache = make_cache(pages=2)
        cache.access_page(0)
        cache.access_page(1)
        cache.access_page(0)   # refresh page 0
        cache.access_page(2)   # must evict page 1
        assert cache.is_resident(0)
        assert not cache.is_resident(1)
        assert cache.is_resident(2)

    def test_working_set_within_ram_never_refaults(self):
        cache = make_cache(pages=16)
        for _ in range(5):
            cache.access_range(0, 8 * 4096)
        assert cache.stats.major_faults == 8
        assert cache.stats.hits == 4 * 8

    def test_working_set_exceeding_ram_refaults_every_pass(self):
        cache = make_cache(pages=4)
        passes = 3
        for _ in range(passes):
            for page_id in range(8):
                cache.access_page(page_id)
        # With LRU and a sequential scan larger than RAM, every access misses.
        assert cache.stats.major_faults == passes * 8


class TestDirtyPages:
    def test_write_access_marks_dirty_and_flush_writes_back(self):
        cache = make_cache()
        cache.access_page(0, write=True)
        elapsed = cache.flush()
        assert elapsed > 0
        assert cache.stats.writebacks == 1
        assert cache.disk.bytes_written == 4096

    def test_evicting_dirty_page_writes_back(self):
        cache = make_cache(pages=1)
        cache.access_page(0, write=True)
        cache.access_page(1)
        assert cache.stats.writebacks == 1

    def test_clean_pages_not_written_back(self):
        cache = make_cache(pages=1)
        cache.access_page(0)
        cache.access_page(1)
        assert cache.stats.writebacks == 0

    def test_drop_caches_empties_cache(self):
        cache = make_cache()
        cache.access_range(0, 4 * 4096)
        cache.drop_caches()
        assert cache.resident_pages == 0


class TestReadAheadIntegration:
    def test_prefetch_counts_and_hits(self):
        cache = make_cache(pages=16, readahead=FixedReadAhead(window=3))
        cache.access_page(0)
        assert cache.stats.prefetched_pages == 3
        cache.access_page(1)
        assert cache.stats.prefetch_hits == 1
        assert cache.stats.hits == 1

    def test_readahead_reduces_major_faults_on_sequential_scan(self):
        no_ra = make_cache(pages=64, readahead=NoReadAhead())
        with_ra = make_cache(pages=64, readahead=FixedReadAhead(window=8))
        for page_id in range(32):
            no_ra.access_page(page_id)
            with_ra.access_page(page_id)
        assert with_ra.stats.major_faults < no_ra.stats.major_faults

    def test_readahead_bounded_by_file_size(self):
        cache = make_cache(pages=16, readahead=FixedReadAhead(window=8))
        cache.set_file_size(2 * 4096)
        cache.access_page(1)
        # Only pages 0 and 1 exist; nothing beyond end-of-file may be prefetched.
        assert cache.resident_pages <= 2

    def test_sequential_scan_faster_with_readahead(self):
        no_ra = make_cache(pages=64, readahead=NoReadAhead())
        with_ra = make_cache(pages=64, readahead=FixedReadAhead(window=8))
        t_no = sum(no_ra.access_page(p) for p in range(64))
        t_ra = sum(with_ra.access_page(p) for p in range(64))
        assert t_ra < t_no


class TestStatsManagement:
    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access_range(0, 2 * 4096)
        cache.reset_stats()
        assert cache.stats.major_faults == 0
        assert cache.resident_pages == 2
        cache.access_page(0)
        assert cache.stats.hits == 1

    def test_resident_bytes(self):
        cache = make_cache(pages=8, page_size=4096)
        cache.access_range(0, 3 * 4096)
        assert cache.resident_bytes == 3 * 4096
