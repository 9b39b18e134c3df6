"""Plain-text table rendering for experiment results.

The benchmark harness regenerates the paper's tables as monospace text;
these helpers keep the formatting in one place so every bench prints
rows the same way the paper lays them out.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Render",
    "format_table",
    "format_rows",
    "format_kv",
    "key_values",
    "table",
]

#: One result row: field name -> value.
Row = Mapping[str, Any]

#: A column's cell: a ``str.format`` template over the row's fields
#: (``"{hops:.0f}"``) or a function of the row.
Column = Union[str, Callable[[Row], str]]

#: An entry's ``render``: its rows and params to one text per stem.
Render = Callable[[Any, Dict[str, Any]], Dict[str, str]]


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
    title: str,
    columns: Sequence[Tuple[str, Column]],
    rows: Iterable[Row],
    pair: Optional[str] = None,
) -> str:
    """Render one line per row under ``(header, cell)`` columns.

    With ``pair``, one line per value of that field instead, ascending:
    the line's row is ``{pair: value, "sll": row, "pcsa": row}``, so a
    template reads ``"{sll[hops]:.0f} / {pcsa[hops]:.0f}"``.
    """
    if pair is not None:
        by: Dict[Any, Dict[str, Any]] = {}
        for row in rows:
            by.setdefault(row[pair], {pair: row[pair]})[row["estimator"]] = row
        rows = [by[value] for value in sorted(by)]
    return format_table(
        title,
        [header for header, _ in columns],
        [
            [
                cell.format(**row) if isinstance(cell, str) else cell(row)
                for _, cell in columns
            ]
            for row in rows
        ],
    )


def table(
    stem: str,
    title: str,
    columns: Sequence[Tuple[str, Column]],
    pair: Optional[str] = None,
) -> Render:
    """The ``render`` of an entry printing one table, ``stem``.

    ``title`` is a ``str.format`` template over the entry's params; the
    rows render through :func:`format_rows`.
    """

    def render(rows: Iterable[Row], params: Dict[str, Any]) -> Dict[str, str]:
        return {stem: format_rows(title.format(**params), columns, rows, pair)}

    return render


def key_values(
    stem: str,
    title: str,
    lines: Sequence[Tuple[str, Union[str, Callable[[Row], object]]]],
) -> Render:
    """The ``render`` of an entry whose one row prints as key/value lines.

    A line's value is the row field it names, or a function of the row.
    """

    def render(row: Row, params: Dict[str, Any]) -> Dict[str, str]:
        return {
            stem: format_kv(
                title.format(**params),
                [
                    (key, row[value] if isinstance(value, str) else value(row))
                    for key, value in lines
                ],
            )
        }

    return render


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
