"""Experiment: advanced histogram types over DHS (footnote 5).

Maintain a fine micro-bucket equi-width histogram in the DHS, reconstruct
it once, and derive equi-width / v-optimal / maxdiff / compressed
bucketings at an equal (much smaller) bucket budget.  Quality metric:
mean relative error of narrow range-selectivity queries against ground
truth — the quantity a query optimizer actually consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    build_ring,
    populate_histogram_metrics,
)
from repro.experiments.report import format_rows
from repro.histograms.advanced import derive_histogram
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.sim.seeds import derive_seed
from repro.workloads.relations import make_relation

__all__ = ["HISTOGRAM_TYPES", "HistogramTypeRow", "format_histogram_types"]


@dataclass
class HistogramTypeRow:
    """Range-estimation quality of one histogram kind."""

    kind: str
    buckets: int
    mean_range_error_pct: float
    #: Same construction from the exact micro-histogram (DHS-noise-free).
    oracle_error_pct: float


def _run(
    *,
    kinds: Sequence[str],
    n_nodes: int,
    n_micro: int,
    budget: int,
    n_items: int,
    num_bitmaps: int,
    theta: float,
    n_queries: int,
    seed: int,
) -> List[HistogramTypeRow]:
    """Compare derived histogram kinds at an equal bucket budget."""
    relation = make_relation(
        "R", n_items, domain=1000, theta=theta, seed=derive_seed(seed, "rel")
    )
    micro_spec = BucketSpec.equi_width(relation.domain[0], relation.domain[1], n_micro)
    exact_micro = Histogram.exact(micro_spec, relation.values)

    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring"))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
        seed=derive_seed(seed, "dhs"),
    )
    populate_histogram_metrics(dhs, relation, n_micro, seed=derive_seed(seed, "load"))
    builder = DHSHistogramBuilder(dhs, micro_spec, relation.name)
    dhs_micro = builder.reconstruct().histogram

    rng = np.random.default_rng(derive_seed(seed, "queries") % 2**32)
    domain_hi = relation.domain[1]
    queries = []
    while len(queries) < n_queries:
        lo = int(rng.integers(1, domain_hi - 20))
        hi = lo + int(rng.integers(2, 40))
        truth = float(((relation.values >= lo) & (relation.values < hi)).sum())
        if truth >= n_items / 2000:
            queries.append((lo, hi, truth))

    def mean_error(histogram: Histogram) -> float:
        errors = [
            abs(histogram.estimate_range(lo, hi) - truth) / truth
            for lo, hi, truth in queries
        ]
        return 100 * sum(errors) / len(errors)

    rows: List[HistogramTypeRow] = []
    for kind in kinds:
        derived = derive_histogram(dhs_micro, kind, budget)
        oracle = derive_histogram(exact_micro, kind, budget)
        rows.append(
            HistogramTypeRow(
                kind=kind,
                buckets=budget,
                mean_range_error_pct=mean_error(derived),
                oracle_error_pct=mean_error(oracle),
            )
        )
    return rows


def format_histogram_types(rows: List[HistogramTypeRow]) -> str:
    """Render the histogram-kind comparison."""
    return format_rows(
        "Histogram types derived from DHS micro-buckets (footnote 5)",
        [
            ("kind", "{0.kind}"),
            ("buckets", "{0.buckets}"),
            ("range err % (DHS)", "{0.mean_range_error_pct:.1f}"),
            ("range err % (exact micro)", "{0.oracle_error_pct:.1f}"),
        ],
        rows,
    )


HISTOGRAM_TYPES = Experiment(
    name="histogram-types",
    description="footnote 5: v-optimal/maxdiff/compressed",
    results=("histogram_types",),
    params=dict(
        seed=1,
        kinds=("equi_width", "equi_depth", "compressed", "maxdiff", "v_optimal"),
        n_nodes=64,
        n_micro=100,
        budget=10,
        n_items=1_000_000,
        num_bitmaps=64,
        theta=1.0,
        n_queries=300,
    ),
    run=_run,
    render=lambda rows, params: {"histogram_types": format_histogram_types(rows)},
)
