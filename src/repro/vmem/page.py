"""Pages and page identifiers.

A *page* is the unit of transfer between disk and RAM.  The simulator uses the
same default page size as Linux on x86-64 (4 KiB) but the size is configurable
so that ablation benchmarks can study its effect (e.g. 2 MiB huge pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAGE_SIZE_DEFAULT = 4096
"""Default page size in bytes (Linux x86-64 base pages)."""

#: A page is identified by the byte offset of its first byte divided by the
#: page size, i.e. its index within the backing file.
PageId = int


def page_id_for_offset(offset: int, page_size: int = PAGE_SIZE_DEFAULT) -> PageId:
    """Return the page id containing byte ``offset``.

    Parameters
    ----------
    offset:
        Byte offset into the mapped file.  Must be non-negative.
    page_size:
        Page size in bytes.  Must be positive.
    """
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    if page_size <= 0:
        raise ValueError(f"page_size must be positive, got {page_size}")
    return offset // page_size


def pages_for_range(offset: int, length: int, page_size: int = PAGE_SIZE_DEFAULT) -> range:
    """Return the range of page ids touched by ``[offset, offset + length)``.

    A zero-length range touches no pages.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if length == 0:
        return range(0, 0)
    first = page_id_for_offset(offset, page_size)
    last = page_id_for_offset(offset + length - 1, page_size)
    return range(first, last + 1)


def num_pages(total_bytes: int, page_size: int = PAGE_SIZE_DEFAULT) -> int:
    """Number of pages needed to hold ``total_bytes`` bytes (ceiling division)."""
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be non-negative, got {total_bytes}")
    if page_size <= 0:
        raise ValueError(f"page_size must be positive, got {page_size}")
    return -(-total_bytes // page_size)


@dataclass
class Page:
    """A resident page tracked by the page cache.

    Attributes
    ----------
    page_id:
        Index of the page within the backing file.
    dirty:
        Whether the page has been written to since it was brought into RAM
        (a dirty page must be written back to disk before eviction).
    load_tick:
        Logical time at which the page was faulted in.
    last_access_tick:
        Logical time of the most recent access.
    access_count:
        Number of accesses since the page was loaded.
    """

    page_id: PageId
    dirty: bool = False
    load_tick: int = 0
    last_access_tick: int = 0
    access_count: int = field(default=1)

    def touch(self, tick: int, write: bool = False) -> None:
        """Record an access to this page at logical time ``tick``."""
        self.last_access_tick = tick
        self.access_count += 1
        if write:
            self.dirty = True
