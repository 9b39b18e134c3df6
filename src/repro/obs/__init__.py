"""Structured observability: spans, metrics, and trace export.

The paper evaluates DHS by *counting* — hops per lookup, messages per
insert and count, per-node access and storage load (Figures 4-9).  This
package makes those numbers first-class instead of per-experiment
bookkeeping:

:mod:`repro.obs.span`
    :class:`Span` / :class:`Tracer` — a parent/child span tree over the
    simulator's logical clock (no wall-clock anywhere).
:mod:`repro.obs.metrics`
    :class:`MetricsRegistry` — O(1) counters, gauges and fixed-bucket
    histograms with a deterministic ``snapshot()`` that is bit-identical
    at any ``DHS_JOBS`` worker count.
:mod:`repro.obs.runtime`
    The zero-cost switch: hot paths guard on ``runtime.TRACING`` /
    ``runtime.METERING`` and skip all instrumentation when off.
:mod:`repro.obs.export`
    JSONL trace dumps (byte-identical for a fixed seed), span-tree
    rendering, and the paper-style per-interval load table.

See docs/OBSERVABILITY.md for the span model, the metric catalogue, and
the determinism contract.
"""

from repro.obs.export import (
    LoadRow,
    dumps_jsonl,
    format_load_table,
    format_snapshot,
    render_span_tree,
    span_to_dict,
)
from repro.obs.metrics import (
    METRIC_BUCKETS,
    Histogram,
    MetricsRegistry,
    Snapshot,
)
from repro.obs.runtime import disable, enable, observed
from repro.obs.span import NULL_TRACER, AttrValue, NullTracer, Span, Tracer

__all__ = [
    "AttrValue",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "Snapshot",
    "METRIC_BUCKETS",
    "enable",
    "disable",
    "observed",
    "span_to_dict",
    "dumps_jsonl",
    "render_span_tree",
    "LoadRow",
    "format_load_table",
    "format_snapshot",
]
