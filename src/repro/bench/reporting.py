"""Markdown table formatting for the reproduction's output.

``m3 reproduce`` prints the same rows/series the paper reports; this helper
keeps that formatting in one place (and dependency-free).
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence


def _rows_to_dicts(rows: Iterable[Any]) -> List[Dict[str, Any]]:
    """Convert dataclass rows (or dicts) to a list of flat dictionaries."""
    result = []
    for row in rows:
        if is_dataclass(row) and not isinstance(row, type):
            result.append(asdict(row))
        elif isinstance(row, dict):
            result.append(dict(row))
        else:
            raise TypeError(f"cannot convert {type(row).__name__} to a dict row")
    return result


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    rows: Sequence[Any],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned Markdown (pipe) table.

    Parameters
    ----------
    rows:
        Dataclass instances or dictionaries.
    columns:
        Columns to include, in order; defaults to the keys of the first row.
    title:
        Optional heading printed above the table.
    """
    dict_rows = _rows_to_dicts(rows)
    if not dict_rows:
        return (title + "\n\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(dict_rows[0].keys())

    rendered: List[List[str]] = [[str(col) for col in columns]]
    for row in dict_rows:
        rendered.append([_format_value(row.get(col, "")) for col in columns])

    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    rendered.insert(1, ["-" * width for width in widths])
    lines = [title, ""] if title else []
    for line in rendered:
        cells = " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        lines.append(f"| {cells} |")
    return "\n".join(lines)
