"""Aligned plain-text tables, shared by the console renderer and the reports."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import ReproError


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        raise ReproError("cannot format an empty table")
    columns = list(rows[0].keys())
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
