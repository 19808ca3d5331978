"""Page replacement policies.

When the simulated page cache is full, a victim page must be chosen for
eviction.  Linux uses an approximation of least-recently-used (a two-list
CLOCK-like scheme); the simulator uses exact LRU, the behaviour the paper
ascribes to the OS page cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.vmem.page import Page, PageId


class ReplacementPolicy(ABC):
    """Interface for page replacement policies.

    A policy tracks the set of resident pages and, on demand, selects a victim
    to evict.  Policies never perform the eviction themselves; the cache calls
    :meth:`remove` once it has written the victim back.
    """

    @abstractmethod
    def insert(self, page: Page) -> None:
        """Register a newly loaded page."""

    @abstractmethod
    def access(self, page: Page) -> None:
        """Record an access to an already-resident page."""

    @abstractmethod
    def victim(self) -> PageId:
        """Return the page id that should be evicted next.

        Raises
        ------
        LookupError
            If the policy is tracking no pages.
        """

    @abstractmethod
    def remove(self, page_id: PageId) -> None:
        """Forget a page (after eviction or explicit invalidation)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of pages currently tracked."""

    @property
    def name(self) -> str:
        """Short human-readable policy name."""
        return type(self).__name__.replace("Policy", "").lower()


class LruPolicy(ReplacementPolicy):
    """Exact least-recently-used replacement.

    Maintains an ordered dict from page id to page; the least recently used
    page sits at the front.  This matches the behaviour the M3 paper ascribes
    to the OS page cache ("least recent used caching").
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[PageId, Page]" = OrderedDict()

    def insert(self, page: Page) -> None:
        self._order[page.page_id] = page
        self._order.move_to_end(page.page_id)

    def access(self, page: Page) -> None:
        if page.page_id in self._order:
            self._order.move_to_end(page.page_id)

    def victim(self) -> PageId:
        if not self._order:
            raise LookupError("LRU policy has no pages to evict")
        page_id, _ = next(iter(self._order.items()))
        return page_id

    def remove(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def __len__(self) -> int:
        return len(self._order)
