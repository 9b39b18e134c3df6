"""Golden-trace test: the fixed-seed traced count is byte-stable.

The committed fixture pins the JSONL dump of the default
:class:`~repro.experiments.tracing.TraceScenario` end to end: span
ordering (``seq``), parent/child links, hop attribution, and attribute
values.  Regenerate it deliberately with::

    PYTHONPATH=src python -m repro trace --trace-jsonl tests/obs/golden_trace.jsonl

and review the diff — a change here means the observable behaviour of
the counting path changed.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.tracing import TraceScenario, run_traced_count
from tests.experiments.rendering import render

FIXTURE = Path(__file__).parent / "golden_trace.jsonl"


@pytest.fixture(scope="module")
def run():
    return run_traced_count()


class TestGoldenTrace:
    def test_jsonl_matches_fixture_byte_for_byte(self, run):
        assert run.jsonl() == FIXTURE.read_text()

    def test_rerun_is_identical(self, run):
        assert run_traced_count().jsonl() == run.jsonl()

    def test_seq_is_file_order(self, run):
        assert [span.seq for span in run.spans] == list(range(len(run.spans)))

    def test_span_tree_shape(self, run):
        counts = [s for s in run.spans if s.name == "dhs.count"]
        assert len(counts) == run.scenario.trials
        for span in counts:
            assert span.parent_id is None
        by_id = {s.span_id: s for s in run.spans}
        for span in run.spans:
            if span.name == "count.interval":
                assert by_id[span.parent_id].name == "dhs.count"
            elif span.name in ("dht.lookup", "probe"):
                assert by_id[span.parent_id].name == "count.interval"

    def test_hop_accounting(self, run):
        """Fault-free interval walk: hops == lookup.hops + probes - 1."""
        by_parent = {}
        for span in run.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        intervals = [s for s in run.spans if s.name == "count.interval"]
        assert intervals
        for interval in intervals:
            assert interval.attrs["timeouts"] == 0
            assert interval.attrs["drops"] == 0
            children = by_parent.get(interval.span_id, [])
            lookups = [c for c in children if c.name == "dht.lookup"]
            probes = [c for c in children if c.name == "probe"]
            assert len(lookups) == 1
            assert len(probes) == interval.attrs["probes"]
            assert interval.attrs["hops"] == (
                lookups[0].attrs["hops"] + interval.attrs["probes"] - 1
            )

    def test_count_span_totals_cover_intervals(self, run):
        by_parent = {}
        for span in run.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for count in (s for s in run.spans if s.name == "dhs.count"):
            intervals = [
                c for c in by_parent[count.span_id] if c.name == "count.interval"
            ]
            assert count.attrs["intervals"] == len(intervals)
            assert count.attrs["hops"] == sum(i.attrs["hops"] for i in intervals)
            assert count.attrs["probes"] == sum(i.attrs["probes"] for i in intervals)

    def test_metrics_agree_with_trace(self, run):
        counters = run.snapshot["counters"]
        assert counters["dhs.count.ops"] == run.scenario.trials
        probes_hist = run.snapshot["histograms"]["dhs.count.probes_per_interval"]
        assert probes_hist["count"] == sum(
            1 for s in run.spans if s.name == "count.interval"
        )
        assert probes_hist["sum"] == sum(
            s.attrs["probes"] for s in run.spans if s.name == "count.interval"
        )
        assert counters["dht.probes"] == sum(
            1 for s in run.spans if s.name == "probe"
        )

    def test_fixture_lines_are_sorted_compact_json(self):
        for line in FIXTURE.read_text().splitlines():
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line

    def test_estimates_are_sane(self, run):
        for estimate in run.estimates:
            assert estimate == pytest.approx(run.truth, rel=0.5)

    def test_format_trace_renders(self, run):
        text = render("trace", run)["trace"]
        assert "Span tree" in text
        assert "dhs.count" in text
        assert "Per-interval query access load" in text

    def test_scenario_knobs_change_trace(self):
        other = run_traced_count(TraceScenario(seed=2))
        assert other.jsonl() != FIXTURE.read_text()
