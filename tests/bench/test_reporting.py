"""Tests for the Markdown table helper."""

from dataclasses import dataclass

import pytest

from repro.bench.reporting import format_table


@dataclass
class Row:
    name: str
    value: float


class TestFormatTable:
    def test_is_a_markdown_pipe_table(self):
        assert format_table([Row("alpha", 12.5), Row("b", 3000.0)]).splitlines() == [
            "| name  | value |",
            "| ----- | ----- |",
            "| alpha | 12.50 |",
            "| b     | 3,000 |",
        ]

    def test_title_sits_above_a_blank_line(self):
        text = format_table([Row("alpha", 0.25)], title="demo")
        assert text.splitlines()[:2] == ["demo", ""]
        assert "0.2500" in text

    def test_unsupported_row_type_rejected(self):
        with pytest.raises(TypeError):
            format_table([42])

    def test_column_selection_and_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_missing_column_rendered_blank(self):
        text = format_table([{"a": 1}], columns=["a", "missing"])
        assert "missing" in text
