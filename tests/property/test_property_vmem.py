"""Property-based tests for the virtual-memory substrate."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.vmem.page import num_pages, page_id_for_offset, pages_for_range
from repro.vmem.page_cache import PageCache, PageCacheConfig
from repro.vmem.readahead import NoReadAhead
from repro.vmem.replacement import LruPolicy
from repro.vmem.page import Page

PAGE = 4096


class TestPageArithmeticProperties:
    @given(offset=st.integers(min_value=0, max_value=10**15),
           page_size=st.sampled_from([512, 4096, 65536, 2 ** 21]))
    def test_page_id_consistent_with_range(self, offset, page_size):
        page_id = page_id_for_offset(offset, page_size)
        assert page_id * page_size <= offset < (page_id + 1) * page_size

    @given(offset=st.integers(min_value=0, max_value=10**12),
           length=st.integers(min_value=0, max_value=10**8),
           page_size=st.sampled_from([4096, 65536]))
    def test_pages_for_range_covers_endpoints(self, offset, length, page_size):
        pages = pages_for_range(offset, length, page_size)
        if length == 0:
            assert len(pages) == 0
        else:
            assert pages[0] == page_id_for_offset(offset, page_size)
            assert pages[-1] == page_id_for_offset(offset + length - 1, page_size)
            # The number of pages touched is the tightest possible cover.
            assert len(pages) <= num_pages(length, page_size) + 1

    @given(total=st.integers(min_value=0, max_value=10**12),
           page_size=st.sampled_from([4096, 65536]))
    def test_num_pages_is_ceiling(self, total, page_size):
        pages = num_pages(total, page_size)
        assert pages * page_size >= total
        assert (pages - 1) * page_size < total or pages == 0


class TestReplacementPolicyProperties:
    @given(
        operations=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60),
    )
    @settings(max_examples=50)
    def test_policy_tracks_inserted_pages_exactly(self, operations):
        policy = LruPolicy()
        resident = {}
        for page_id in operations:
            if page_id in resident:
                policy.access(resident[page_id])
            else:
                page = Page(page_id=page_id)
                resident[page_id] = page
                policy.insert(page)
        assert len(policy) == len(resident)
        # Every victim the policy proposes must be a page it is tracking.
        victim = policy.victim()
        assert victim in resident

    @given(
        page_ids=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=40, unique=True
        ),
    )
    @settings(max_examples=50)
    def test_removing_everything_empties_policy(self, page_ids):
        policy = LruPolicy()
        for page_id in page_ids:
            policy.insert(Page(page_id=page_id))
        for page_id in page_ids:
            policy.remove(page_id)
        assert len(policy) == 0
        with pytest.raises(LookupError):
            policy.victim()


class TestPageCacheInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        accesses=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_cache_never_exceeds_capacity_and_counters_balance(self, capacity, accesses):
        cache = PageCache(
            PageCacheConfig(
                ram_bytes=capacity * PAGE,
                page_size=PAGE,
                readahead=NoReadAhead(),
            )
        )
        for page_id in accesses:
            cache.access_page(page_id)
            assert cache.resident_pages <= capacity
        stats = cache.stats
        # Every access is either a hit or a major fault.
        assert stats.hits + stats.major_faults == len(accesses)
        # Every byte read from disk corresponds to a whole page.
        assert cache.disk.bytes_read == (stats.major_faults + stats.prefetched_pages) * PAGE
        # Pages currently resident plus evicted pages equal the pages ever loaded.
        assert cache.resident_pages + stats.evictions == stats.major_faults + stats.prefetched_pages

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_large_cache_never_evicts_and_never_refaults(self, accesses):
        cache = PageCache(
            PageCacheConfig(ram_bytes=64 * PAGE, page_size=PAGE, readahead=NoReadAhead())
        )
        for page_id in accesses:
            cache.access_page(page_id)
        assert cache.stats.evictions == 0
        assert cache.stats.major_faults == len(set(accesses))
