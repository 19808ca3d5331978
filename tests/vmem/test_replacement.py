"""Tests for the page replacement policy."""

import pytest

from repro.vmem.page import Page
from repro.vmem.replacement import LruPolicy


def _insert(policy, *page_ids):
    pages = {}
    for page_id in page_ids:
        page = Page(page_id=page_id)
        pages[page_id] = page
        policy.insert(page)
    return pages


class TestLruPolicy:
    def test_victim_is_least_recently_used(self):
        policy = LruPolicy()
        pages = _insert(policy, 1, 2, 3)
        policy.access(pages[1])  # 2 becomes the LRU page
        assert policy.victim() == 2

    def test_access_refreshes_recency(self):
        policy = LruPolicy()
        pages = _insert(policy, 1, 2)
        policy.access(pages[1])
        policy.access(pages[2])
        assert policy.victim() == 1

    def test_remove_drops_page(self):
        policy = LruPolicy()
        _insert(policy, 1, 2)
        policy.remove(1)
        assert len(policy) == 1
        assert policy.victim() == 2

    def test_victim_on_empty_raises(self):
        with pytest.raises(LookupError):
            LruPolicy().victim()

    def test_policy_name(self):
        assert LruPolicy().name == "lru"
