"""Tests for pages and page-id arithmetic."""

import pytest

from repro.vmem.page import (
    PAGE_SIZE_DEFAULT,
    Page,
    num_pages,
    page_id_for_offset,
    pages_for_range,
)


class TestPageIdForOffset:
    def test_offset_zero_is_page_zero(self):
        assert page_id_for_offset(0) == 0

    def test_offset_within_first_page(self):
        assert page_id_for_offset(PAGE_SIZE_DEFAULT - 1) == 0

    def test_offset_at_page_boundary(self):
        assert page_id_for_offset(PAGE_SIZE_DEFAULT) == 1

    def test_custom_page_size(self):
        assert page_id_for_offset(1024, page_size=512) == 2

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            page_id_for_offset(-1)

    def test_nonpositive_page_size_rejected(self):
        with pytest.raises(ValueError):
            page_id_for_offset(0, page_size=0)


class TestPagesForRange:
    def test_range_within_one_page(self):
        assert list(pages_for_range(10, 100)) == [0]

    def test_range_spanning_two_pages(self):
        pages = list(pages_for_range(PAGE_SIZE_DEFAULT - 10, 20))
        assert pages == [0, 1]

    def test_exact_page_range(self):
        pages = list(pages_for_range(0, 3 * PAGE_SIZE_DEFAULT))
        assert pages == [0, 1, 2]

    def test_zero_length_touches_no_pages(self):
        assert list(pages_for_range(100, 0)) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pages_for_range(0, -1)


class TestNumPages:
    def test_exact_multiple(self):
        assert num_pages(4 * PAGE_SIZE_DEFAULT) == 4

    def test_rounds_up(self):
        assert num_pages(PAGE_SIZE_DEFAULT + 1) == 2

    def test_zero_bytes(self):
        assert num_pages(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            num_pages(-5)


class TestPage:
    def test_touch_updates_access_metadata(self):
        page = Page(page_id=3, load_tick=1, last_access_tick=1)
        page.touch(tick=7)
        assert page.last_access_tick == 7
        assert page.access_count == 2

    def test_touch_write_marks_dirty(self):
        page = Page(page_id=3)
        assert page.dirty is False
        page.touch(tick=2, write=True)
        assert page.dirty is True

    def test_read_touch_does_not_mark_dirty(self):
        page = Page(page_id=3)
        page.touch(tick=2, write=False)
        assert page.dirty is False
