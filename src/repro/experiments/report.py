"""Plain-text table rendering for experiment results.

The benchmark harness regenerates the paper's tables as monospace text;
these helpers keep the formatting in one place so every bench prints
rows the same way the paper lays them out.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence, Tuple, Union

__all__ = ["estimator_pairs", "format_table", "format_rows", "format_kv"]

#: A column's cell: a ``str.format`` template of the row (``"{0.hops:.0f}"``)
#: or a function of it.
Column = Union[str, Callable[[Any], str]]


def format_table(title: str, headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    """Render a titled monospace table."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in rendered_rows)) if rendered_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_rows(
    title: str, columns: Sequence[Tuple[str, Column]], rows: Iterable[Any]
) -> str:
    """Render one line per row under ``(header, cell)`` columns."""
    return format_table(
        title,
        [header for header, _ in columns],
        [
            [
                cell.format(row) if isinstance(cell, str) else cell(row)
                for _, cell in columns
            ]
            for row in rows
        ],
    )


def estimator_pairs(rows: Iterable[Any], key: str) -> List[Tuple[Any, Any, Any]]:
    """``(value, sLL row, PCSA row)`` per value of the ``key`` field, ascending."""
    by: dict[Any, dict[str, Any]] = {}
    for row in rows:
        by.setdefault(getattr(row, key), {})[row.estimator] = row
    return [(value, by[value]["sll"], by[value]["pcsa"]) for value in sorted(by)]


def format_kv(title: str, pairs: Sequence[tuple[str, object]]) -> str:
    """Render titled key/value lines."""
    width = max(len(k) for k, _ in pairs) if pairs else 0
    lines = [title, "-" * len(title)]
    for key, value in pairs:
        lines.append(f"{key.ljust(width)}  {_fmt(value)}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
