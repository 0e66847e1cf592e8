"""Plain-text table rendering for experiment output.

Every experiment module produces structured rows; this helper renders them as
aligned ASCII tables (what ``python -m repro.experiments.runner`` prints,
checked in ``tests/unit/test_analysis.py``) and as CSV text (for
saving results to disk), without any third-party dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_csv"]


def _stringify(value: object, float_format: str) -> str:
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = ".3f",
) -> str:
    """Render rows as an aligned ASCII table."""
    materialised = [[_stringify(cell, float_format) for cell in row] for row in rows]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
    widths = [len(str(header)) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialised:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_csv(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = ".6g",
) -> str:
    """Render rows as CSV text (no quoting; cells must not contain commas)."""
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        cells = [_stringify(cell, float_format) for cell in row]
        if any("," in cell for cell in cells):
            raise ValueError("CSV cells must not contain commas")
        lines.append(",".join(cells))
    return "\n".join(lines)
