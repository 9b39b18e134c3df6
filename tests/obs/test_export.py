"""Exporter tests: JSONL stability, span-tree rendering, load table."""

import json

from repro.obs.export import (
    LoadRow,
    dumps_jsonl,
    format_load_table,
    format_snapshot,
    render_span_tree,
    span_to_dict,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("count", tick=1, hops=4):
        tracer.event("lookup", tick=1, node=9)
        with tracer.span("interval", tick=2, index=0):
            tracer.event("probe", tick=2, ok=True)
    return tracer


class TestJsonl:
    def test_span_to_dict_field_set(self):
        span = _sample_tracer().spans[0]
        assert span_to_dict(span) == {
            "seq": 0,
            "span": 1,
            "parent": None,
            "name": "count",
            "tick": 1,
            "event": False,
            "attrs": {"hops": 4},
        }

    def test_dumps_one_line_per_span_sorted_keys(self):
        text = dumps_jsonl(_sample_tracer().spans)
        lines = text.splitlines()
        assert len(lines) == 4
        assert text.endswith("\n")
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)
            assert " " not in line.split('"name"')[0]  # compact separators

    def test_dumps_empty(self):
        assert dumps_jsonl([]) == ""

    def test_byte_stability_across_runs(self):
        assert dumps_jsonl(_sample_tracer().spans) == dumps_jsonl(
            _sample_tracer().spans
        )


class TestSpanTree:
    def test_tree_shape_and_markers(self):
        text = render_span_tree(_sample_tracer().spans)
        lines = text.splitlines()
        assert lines[0].startswith("`- count @t1")
        assert "* lookup" in lines[1]  # event marker
        assert lines[2].lstrip().startswith("`- interval")
        # Children are indented beneath their parent.
        assert lines[1].startswith("   ")

    def test_attr_elision(self):
        tracer = Tracer()
        with tracer.span("op", a=1, b=2, c=3):
            pass
        text = render_span_tree(tracer.spans, max_attrs=2)
        assert "..." in text
        assert "c=3" not in text

    def test_empty(self):
        assert render_span_tree([]) == ""


class TestLoadTable:
    def test_per_node_handles_empty_interval(self):
        assert LoadRow(interval=0, position=0, nodes=0, accesses=0).per_node == 0.0
        assert LoadRow(interval=0, position=0, nodes=4, accesses=8).per_node == 2.0

    def test_format_contains_rows_and_uniformity(self):
        rows = [
            LoadRow(interval=0, position=0, nodes=4, accesses=8),
            LoadRow(interval=1, position=1, nodes=2, accesses=4),
            LoadRow(interval=2, position=2, nodes=0, accesses=0),
        ]
        text = format_load_table(rows)
        assert "interval" in text and "per node" in text
        # Both populated intervals carry 2.0/node: perfectly uniform.
        assert "max/mean 1.00" in text
        # Empty intervals are listed but excluded from the summary.
        assert text.count("0.00") >= 1

    def test_format_all_empty_has_no_summary(self):
        rows = [LoadRow(interval=0, position=0, nodes=0, accesses=0)]
        assert "max/mean" not in format_load_table(rows)


class TestFormatSnapshot:
    def test_sections_render(self):
        reg = MetricsRegistry()
        reg.inc("ops", 2)
        reg.set_gauge("depth", 1.5)
        reg.observe("h", 3)
        text = format_snapshot(reg.snapshot())
        assert "counters:" in text and "ops = 2" in text
        assert "gauges:" in text and "depth = 1.5" in text
        assert "histograms:" in text and "n=1" in text

    def test_empty_snapshot_renders_empty(self):
        assert format_snapshot(MetricsRegistry().snapshot()) == ""
