"""Exporters: JSONL trace dumps, span trees, and the paper-style load table.

The JSONL format is one JSON object per span, in start (``seq``) order,
with sorted keys and compact separators — a fixed-seed run therefore
produces a **byte-identical** file, which the committed golden-trace
fixture pins end to end (tests/obs/test_golden_trace.py).

``format_load_table`` renders per-interval access-load rows in the shape
of the paper's Figure 7: the exponentially-shrinking id-space intervals
each hold roughly ``2^-(r+1)`` of the nodes yet receive roughly equal
access counts per node — the uniform-load claim the DHS design makes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.obs.metrics import Snapshot
from repro.obs.span import AttrValue, Span

__all__ = [
    "span_to_dict",
    "dumps_jsonl",
    "render_span_tree",
    "LoadRow",
    "format_load_table",
    "format_snapshot",
]


def span_to_dict(span: Span) -> Dict[str, Union[AttrValue, None, Dict[str, AttrValue]]]:
    """Plain-data form of one span (stable field set, JSON-ready)."""
    return {
        "seq": span.seq,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "tick": span.tick,
        "event": span.event,
        "attrs": dict(span.attrs),
    }


def dumps_jsonl(spans: Iterable[Span]) -> str:
    """The JSONL trace dump as a string (one span per line, seq order)."""
    lines = [
        json.dumps(span_to_dict(span), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_span_tree(spans: Sequence[Span], max_attrs: int = 6) -> str:
    """ASCII tree of a span list (children indented under parents).

    Attributes are rendered inline, ``key=value`` sorted by key, at most
    ``max_attrs`` per span (the rest elided with ``...``).
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    lines: List[str] = []

    def attr_text(span: Span) -> str:
        items = sorted(span.attrs.items())
        shown = [f"{key}={value}" for key, value in items[:max_attrs]]
        if len(items) > max_attrs:
            shown.append("...")
        return f" [{', '.join(shown)}]" if shown else ""

    def walk(parent: Optional[int], prefix: str) -> None:
        group = children.get(parent, [])
        for position, span in enumerate(group):
            last = position == len(group) - 1
            branch = "`-" if last else "|-"
            marker = "* " if span.event else ""
            lines.append(
                f"{prefix}{branch} {marker}{span.name} @t{span.tick}{attr_text(span)}"
            )
            walk(span.span_id, prefix + ("   " if last else "|  "))

    walk(None, "")
    return "\n".join(lines)


@dataclass(frozen=True)
class LoadRow:
    """Access load of one id-space interval (one Figure-7 bar)."""

    interval: int
    #: Bit position the interval stores (``r`` in the paper).
    position: int
    #: Live nodes inside the interval.
    nodes: int
    #: Total accesses charged to those nodes.
    accesses: int

    @property
    def per_node(self) -> float:
        """Mean accesses per interval node (0.0 for empty intervals)."""
        return self.accesses / self.nodes if self.nodes else 0.0


def format_load_table(rows: Sequence[LoadRow], title: str = "Per-interval access load") -> str:
    """Render the Figure-7-style load table with a uniformity summary."""
    header = f"{'interval':>8}  {'bit r':>5}  {'nodes':>6}  {'accesses':>9}  {'per node':>9}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.interval:>8}  {row.position:>5}  {row.nodes:>6}  "
            f"{row.accesses:>9}  {row.per_node:>9.2f}"
        )
    populated = [row.per_node for row in rows if row.nodes > 0]
    if populated:
        mean = sum(populated) / len(populated)
        peak = max(populated)
        ratio = peak / mean if mean > 0 else 0.0
        lines.append("-" * len(header))
        lines.append(
            f"per-node load over populated intervals: mean {mean:.2f}, "
            f"max {peak:.2f}, max/mean {ratio:.2f} (1.00 = perfectly uniform)"
        )
    return "\n".join(lines)


def format_snapshot(snapshot: Snapshot) -> str:
    """Human-readable rendering of a metrics snapshot."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name} = {gauges[name]:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            data = histograms[name]
            assert isinstance(data, Mapping)
            count = data["count"]
            total = data["sum"]
            assert isinstance(count, (int, float)) and isinstance(total, (int, float))
            mean = total / count if count else 0.0
            lines.append(f"  {name}: n={count:g} mean={mean:.3f}")
            bounds = data["bounds"]
            bucket_counts = data["counts"]
            assert isinstance(bounds, list) and isinstance(bucket_counts, list)
            edges = [f"<={bound:g}" for bound in bounds] + ["overflow"]
            cells = [
                f"{edge}:{bucket}"
                for edge, bucket in zip(edges, bucket_counts)
                if bucket
            ]
            if cells:
                lines.append(f"    {' '.join(cells)}")
    return "\n".join(lines)
