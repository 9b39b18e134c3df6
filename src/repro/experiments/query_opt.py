"""Experiment: DHS-histogram-driven query optimization (section 5.2).

The paper's closing argument, modelled on the PIER/FREddies comparison:
for a multi-way join, the optimal join tree (picked from histograms)
transfers far fewer bytes than a naive order, and the one-off cost of
reconstructing the histograms over DHS (~1 MB at paper scale) is orders
of magnitude below the savings.

The ``query-opt`` entry measures, for a join over Q/R/S/T:

* actual bytes shipped by the plan the optimizer picks from
  DHS-reconstructed histograms;
* actual bytes shipped by the naive largest-first left-deep plan;
* actual bytes of the true optimum (optimizer fed exact histograms);
* the DHS histogram reconstruction cost that bought the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    build_ring,
    populate_histogram_metrics,
)
from repro.experiments.report import format_kv
from repro.histograms.buckets import BucketSpec
from repro.query.catalog import Catalog
from repro.query.engine import execute_plan
from repro.query.optimizer import optimize
from repro.query.plans import left_deep_plan
from repro.sim.seeds import derive_seed
from repro.workloads.relations import standard_relations

__all__ = ["QUERY_OPT", "QueryOptReport"]


@dataclass
class QueryOptReport:
    """Actual transfer volumes of the competing strategies."""

    relation_names: List[str]
    chosen_plan: str
    chosen_shipped_mb: float
    naive_plan: str
    naive_shipped_mb: float
    oracle_plan: str
    oracle_shipped_mb: float
    histogram_cost_mb: float
    histogram_cost_hops: int

    def format(self) -> str:
        return format_kv(
            "Query optimization with DHS histograms",
            [
                ("join", " ⋈ ".join(self.relation_names)),
                ("DHS-histogram plan", self.chosen_plan),
                ("  actual transfer (MB)", self.chosen_shipped_mb),
                ("naive plan", self.naive_plan),
                ("  actual transfer (MB)", self.naive_shipped_mb),
                ("oracle plan", self.oracle_plan),
                ("  actual transfer (MB)", self.oracle_shipped_mb),
                ("histogram reconstruction (MB)", self.histogram_cost_mb),
                ("histogram reconstruction (hops)", self.histogram_cost_hops),
                (
                    "savings vs naive (MB)",
                    self.naive_shipped_mb - self.chosen_shipped_mb,
                ),
            ],
        )


def _run(
    *,
    n_nodes: int,
    num_bitmaps: int,
    n_buckets: int,
    scale: float,
    seed: int,
) -> QueryOptReport:
    """Compare DHS-informed, naive, and oracle join orders."""
    relations = standard_relations(scale=scale, seed=derive_seed(seed, "relations"))
    by_name = {relation.name: relation for relation in relations}
    names = [relation.name for relation in relations]
    spec = BucketSpec.equi_width(
        relations[0].domain[0], relations[0].domain[1], n_buckets
    )

    # Store every relation's histogram metrics in one DHS deployment.
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring"))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
        seed=derive_seed(seed, "dhs"),
    )
    for relation in relations:
        populate_histogram_metrics(
            dhs, relation, n_buckets, seed=derive_seed(seed, "load", relation.name)
        )

    # A querying node reconstructs the catalog over the network.
    dhs_catalog = Catalog.from_dhs(dhs, relations, spec, origin=ring.node_ids()[0])
    chosen = optimize(dhs_catalog, names)

    # Competitors: naive largest-first order, and the oracle fed truth.
    naive_order = sorted(names, key=lambda name: -by_name[name].size)
    naive = left_deep_plan(naive_order)
    oracle = optimize(Catalog.exact(relations, spec), names)

    chosen_result = execute_plan(chosen.root, by_name)
    naive_result = execute_plan(naive, by_name)
    oracle_result = execute_plan(oracle.root, by_name)

    return QueryOptReport(
        relation_names=names,
        chosen_plan=chosen.describe(),
        chosen_shipped_mb=chosen_result.shipped_mb,
        naive_plan=" ⋈ ".join(naive_order),
        naive_shipped_mb=naive_result.shipped_mb,
        oracle_plan=oracle.describe(),
        oracle_shipped_mb=oracle_result.shipped_mb,
        histogram_cost_mb=dhs_catalog.acquisition_cost.bytes / (1024 * 1024),
        histogram_cost_hops=dhs_catalog.acquisition_cost.hops,
    )


QUERY_OPT = Experiment(
    name="query-opt",
    description="§5.2 join-ordering savings",
    results=("query_opt",),
    params=dict(seed=1, n_nodes=128, num_bitmaps=128, n_buckets=20, scale=2e-3),
    run=_run,
    render=lambda report, params: {"query_opt": report.format()},
)
