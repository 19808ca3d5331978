"""Read-ahead policies.

The M3 paper credits much of memory mapping's efficiency to the kernel's
read-ahead: when a sequential scan is detected, the kernel fetches upcoming
pages before they are demanded, hiding disk latency.  The simulator models
three policies:

* :class:`NoReadAhead` — every page access that misses is a synchronous fault.
* :class:`FixedReadAhead` — always prefetch a fixed window of subsequent pages.
* :class:`AdaptiveReadAhead` — Linux-like: start with a small window, double it
  while the access pattern stays sequential, collapse on a random access.
* :class:`PipelinedReadAhead` — engine-level: models M3's explicit
  multi-reader prefetch pool (``io_workers`` in the streaming engine), where
  ``readers`` parallel streams each keep ``window`` pages in flight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.vmem.page import PageId


class ReadAheadPolicy(ABC):
    """Decides which additional pages to prefetch after a demand fault."""

    @abstractmethod
    def prefetch_window(self, page_id: PageId) -> List[PageId]:
        """Pages to prefetch (beyond ``page_id``) given a fault on ``page_id``."""

    def reset(self) -> None:
        """Forget any learned access-pattern state."""
        return None

    @property
    def name(self) -> str:
        """Short human-readable policy name."""
        return type(self).__name__


class NoReadAhead(ReadAheadPolicy):
    """Never prefetch; every miss is a synchronous single-page read."""

    def prefetch_window(self, page_id: PageId) -> List[PageId]:
        return []


class FixedReadAhead(ReadAheadPolicy):
    """Prefetch a fixed number of consecutive pages after every fault."""

    def __init__(self, window: int = 32) -> None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = window

    def prefetch_window(self, page_id: PageId) -> List[PageId]:
        return [page_id + i for i in range(1, self.window + 1)]


class AdaptiveReadAhead(ReadAheadPolicy):
    """Linux-style adaptive read-ahead.

    The window starts at ``initial_window`` pages.  Each time a fault lands
    exactly where the previous sequential run left off the window doubles (up
    to ``max_window``); a non-sequential fault resets it.  The default maximum
    of 32 pages (128 KiB with 4 KiB pages) matches the Linux default
    ``read_ahead_kb = 128``.
    """

    def __init__(self, initial_window: int = 4, max_window: int = 32) -> None:
        if initial_window <= 0:
            raise ValueError(f"initial_window must be positive, got {initial_window}")
        if max_window < initial_window:
            raise ValueError(
                f"max_window ({max_window}) must be >= initial_window ({initial_window})"
            )
        self.initial_window = initial_window
        self.max_window = max_window
        self._window = initial_window
        self._expected_next: Optional[PageId] = None

    def prefetch_window(self, page_id: PageId) -> List[PageId]:
        sequential = self._expected_next is not None and page_id == self._expected_next
        if sequential:
            self._window = min(self._window * 2, self.max_window)
        else:
            self._window = self.initial_window
        window = [page_id + i for i in range(1, self._window + 1)]
        # The next sequential fault would land just past what we prefetched.
        self._expected_next = page_id + self._window + 1
        return window

    def reset(self) -> None:
        self._window = self.initial_window
        self._expected_next = None

    @property
    def current_window(self) -> int:
        """Current read-ahead window size in pages."""
        return self._window


class PipelinedReadAhead(ReadAheadPolicy):
    """Engine-level pipelined read-ahead: a pool of parallel reader streams.

    Models the readers of :class:`~repro.api.chunks.ChunkStream` at
    the page level so it can be replayed through the virtual-memory simulator
    and compared against the kernel policies above: a pool of ``readers``
    sequential streams each keeps ``window`` pages in flight, so any demand
    fault triggers prefetch of the union of the pool's outstanding windows —
    ``readers × window`` consecutive pages.  Unlike
    :class:`AdaptiveReadAhead` the window never collapses: the engine *knows*
    the chunk plan is a sequential scan, it does not have to re-detect it
    after every shard boundary.
    """

    def __init__(self, readers: int = 4, window: int = 8) -> None:
        if readers <= 0:
            raise ValueError(f"readers must be positive, got {readers}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.readers = readers
        self.window = window

    def prefetch_window(self, page_id: PageId) -> List[PageId]:
        return [page_id + i for i in range(1, self.readers * self.window + 1)]

    @property
    def total_window(self) -> int:
        """Pages the pool keeps in flight (``readers × window``)."""
        return self.readers * self.window


def make_readahead(name: str, **kwargs: int) -> ReadAheadPolicy:
    """Create a read-ahead policy by name
    (``"none"``, ``"fixed"``, ``"adaptive"``, ``"pipelined"``)."""
    key = name.lower()
    if key in ("none", "off"):
        return NoReadAhead()
    if key == "fixed":
        return FixedReadAhead(**kwargs)
    if key == "adaptive":
        return AdaptiveReadAhead(**kwargs)
    if key == "pipelined":
        return PipelinedReadAhead(**kwargs)
    raise ValueError(
        f"unknown read-ahead policy {name!r}; choose from none, fixed, adaptive, pipelined"
    )
