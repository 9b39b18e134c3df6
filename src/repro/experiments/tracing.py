"""The traced counting scenario: one fixed-seed run, fully observed.

This is the shared driver behind ``python -m repro trace`` and the
golden-trace test (tests/obs/test_golden_trace.py).  It builds a small
Chord ring, populates one metric the way every experiment does
(:func:`~repro.experiments.common.populate_metric`, untraced so the
trace stays readable), then runs a handful of counts from seeded random
origins with span tracing and metering enabled.

Everything downstream is a pure function of ``TraceScenario``: the span
list, the JSONL dump, the metrics snapshot, and the Figure-7-style
per-interval access-load table are byte-identical for a fixed seed —
which is exactly what the committed golden fixture pins.
"""

from __future__ import annotations

import pathlib
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import Experiment, build_ring, populate_metric
from repro.obs import runtime as obs
from repro.obs.export import LoadRow, dumps_jsonl, format_load_table, format_snapshot, render_span_tree
from repro.obs.metrics import MetricsRegistry, Snapshot
from repro.obs.span import Span, Tracer
from repro.sim.seeds import derive_seed, rng_for

__all__ = [
    "TRACE",
    "TraceScenario",
    "TraceRun",
    "run_traced_count",
    "build_load_rows",
    "format_trace",
]


@dataclass(frozen=True)
class TraceScenario:
    """Knobs of the traced run (defaults = the golden-fixture scenario)."""

    seed: int = 1
    n_nodes: int = 64
    n_items: int = 2000
    trials: int = 4
    estimator: str = "sll"
    num_bitmaps: int = 64
    #: Few enough positions (``key_bits - log2(m)``) that most intervals
    #: hold nodes at ``n_nodes`` — empty intervals all resolve to one
    #: successor-owner, which would dominate the load table with a
    #: small-N artefact.
    key_bits: int = 16


@dataclass
class TraceRun:
    """Everything one traced scenario run produced."""

    scenario: TraceScenario
    spans: List[Span]
    snapshot: Snapshot
    load_rows: List[LoadRow]
    #: Per-trial cardinality estimates, in trial order.
    estimates: List[float] = field(default_factory=list)
    truth: float = 0.0

    def jsonl(self) -> str:
        """The byte-stable JSONL trace dump."""
        return dumps_jsonl(self.spans)


def build_load_rows(dhs: DistributedHashSketch) -> List[LoadRow]:
    """Figure-7-style per-interval access load from the overlay tracker.

    Each row aggregates the load tracker's per-node access counts over
    the live nodes of one id-space interval.  The paper's uniform-load
    claim is that per-node load is flat across intervals even though the
    interval populations shrink geometrically.
    """
    counts = dhs.dht.load.counts()
    rows: List[LoadRow] = []
    node_ids = dhs.dht.node_ids()
    for index in range(dhs.mapping.num_intervals):
        lo, hi = dhs.mapping.interval_for_index(index)
        members = node_ids[bisect_left(node_ids, lo) : bisect_left(node_ids, hi)]
        rows.append(
            LoadRow(
                interval=index,
                position=dhs.mapping.position_for_index(index),
                nodes=len(members),
                accesses=sum(counts.get(nid, 0) for nid in members),
            )
        )
    return rows


def run_traced_count(scenario: TraceScenario = TraceScenario()) -> TraceRun:
    """Run the traced counting scenario and collect every artefact.

    Population runs untraced (its spans would dwarf the counting story);
    the load tracker is reset after it, so the load table shows *query*
    load only — the quantity Figure 7 plots.
    """
    ring = build_ring(scenario.n_nodes, seed=scenario.seed)
    config = DHSConfig(
        estimator=scenario.estimator,
        num_bitmaps=scenario.num_bitmaps,
        key_bits=scenario.key_bits,
        hash_seed=derive_seed(scenario.seed, "hash"),
    )
    dhs = DistributedHashSketch(ring, config, seed=scenario.seed)
    # Dense distinct ids: the true cardinality is exactly ``n_items``.
    items = np.arange(scenario.n_items, dtype=np.int64)
    populate_metric(dhs, "trace-metric", items, seed=derive_seed(scenario.seed, "owners"))
    dhs.dht.load.reset()

    tracer = Tracer()
    registry = MetricsRegistry()
    origin_rng = rng_for(scenario.seed, "trace-origins")
    estimates: List[float] = []
    with obs.observed(tracer, registry):
        for _ in range(scenario.trials):
            origin = dhs.dht.random_live_node(origin_rng)
            result = dhs.count("trace-metric", origin=origin)
            estimates.append(result.estimate())
    return TraceRun(
        scenario=scenario,
        spans=tracer.spans,
        snapshot=registry.snapshot(),
        load_rows=build_load_rows(dhs),
        estimates=estimates,
        truth=float(scenario.n_items),
    )


def format_trace(run: TraceRun, max_spans: int = 120) -> str:
    """The ``repro trace`` report: span tree, metrics, load table."""
    shown = run.spans[:max_spans]
    parts: List[str] = []
    header: Dict[str, str] = {
        "seed": str(run.scenario.seed),
        "nodes": str(run.scenario.n_nodes),
        "items": str(run.scenario.n_items),
        "estimator": run.scenario.estimator,
        "trials": str(run.scenario.trials),
    }
    parts.append("Traced DHS count — " + ", ".join(f"{k}={v}" for k, v in header.items()))
    parts.append(
        "truth %.0f, estimates: %s"
        % (run.truth, ", ".join(f"{e:.1f}" for e in run.estimates))
    )
    parts.append("")
    tree_title = f"Span tree ({len(shown)} of {len(run.spans)} spans)"
    parts.append(tree_title)
    parts.append("=" * len(tree_title))
    parts.append(render_span_tree(shown))
    parts.append("")
    snap_title = "Metrics snapshot"
    parts.append(snap_title)
    parts.append("=" * len(snap_title))
    parts.append(format_snapshot(run.snapshot))
    parts.append("")
    parts.append(
        format_load_table(
            run.load_rows, title="Per-interval query access load (paper Fig. 7)"
        )
    )
    return "\n".join(parts)


def _run(trace_jsonl: Optional[str] = None, **scenario: Any) -> TraceRun:
    """The traced run; ``trace_jsonl`` also dumps its spans to that path."""
    run = run_traced_count(TraceScenario(**scenario))
    if trace_jsonl is not None:
        path = pathlib.Path(trace_jsonl)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(run.jsonl())
    return run


TRACE = Experiment(
    name="trace",
    description="traced count: span tree, metrics, Fig. 7 load table",
    results=(),
    params={**asdict(TraceScenario()), "trace_jsonl": None},
    run=_run,
    render=lambda run, params: {"trace": format_trace(run)},
)
