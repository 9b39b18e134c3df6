"""Experiment: insertion and maintenance costs (paper section 5.2, text).

The paper reports, for the 1024-node / 512-bitmap setup:

* ~3.4 routing hops and ~27 bytes per single-item insertion/update;
* per-node storage of ~384 kB per relation when maintaining 100
  histogram buckets with 512 bitmaps each (theoretical worst case
  ~400 kB = 100 buckets x 512 vectors x 8 B).

The ``insertion`` entry measures the same three quantities: mean
hops and bytes over per-item insertions, and the per-node storage
distribution after loading a relation's histogram metrics.
"""

from __future__ import annotations

import statistics
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
from repro.sim.seeds import rng_for
from repro.workloads.relations import make_relation

__all__ = ["INSERTION", "InsertionReport"]


@dataclass
class InsertionReport:
    """Measured insertion/storage statistics."""

    n_nodes: int
    num_bitmaps: int
    n_buckets: int
    relation_size: int
    mean_hops_per_insert: float
    mean_bytes_per_insert: float
    mean_storage_bytes_per_node: float
    max_storage_bytes_per_node: float
    theoretical_worst_case_bytes: float

    def format(self) -> str:
        return format_kv(
            "Insertion & maintenance costs (section 5.2)",
            [
                ("nodes", self.n_nodes),
                ("bitmaps (m)", self.num_bitmaps),
                ("histogram buckets", self.n_buckets),
                ("relation tuples", self.relation_size),
                ("mean hops / insertion", self.mean_hops_per_insert),
                ("mean bytes / insertion", self.mean_bytes_per_insert),
                ("mean storage / node (kB)", self.mean_storage_bytes_per_node / 1024),
                ("max storage / node (kB)", self.max_storage_bytes_per_node / 1024),
                (
                    "theoretical worst case (kB)",
                    self.theoretical_worst_case_bytes / 1024,
                ),
            ],
        )


def _run(
    *,
    n_nodes: int,
    num_bitmaps: int,
    n_buckets: int,
    scale: float,
    probe_inserts: int,
    seed: int,
) -> InsertionReport:
    """Measure per-insertion cost and per-node storage for one relation."""
    ring = build_ring(n_nodes, seed=seed)
    config = DHSConfig(num_bitmaps=num_bitmaps)
    dhs = DistributedHashSketch(ring, config, seed=seed)
    relation = make_relation("R", max(1000, int(20_000_000 * scale)), seed=seed)

    # Per-item insertion cost, sampled over random items/origins.
    rng = rng_for(seed, "insert-probe")
    hops: List[int] = []
    bytes_per: List[float] = []
    for _ in range(probe_inserts):
        index = rng.randrange(relation.size)
        origin = ring.random_live_node(rng)
        cost = dhs.insert("probe-metric", relation.item_id(index), origin=origin)
        hops.append(cost.hops)
        bytes_per.append(cost.bytes)

    # Storage after maintaining the full histogram for the relation.
    populate_histogram_metrics(dhs, relation, n_buckets, seed=seed)
    storage = list(dhs.storage_bytes_per_node().values())

    return InsertionReport(
        n_nodes=n_nodes,
        num_bitmaps=num_bitmaps,
        n_buckets=n_buckets,
        relation_size=relation.size,
        mean_hops_per_insert=statistics.mean(hops),
        mean_bytes_per_insert=statistics.mean(bytes_per),
        mean_storage_bytes_per_node=statistics.mean(storage),
        max_storage_bytes_per_node=max(storage),
        theoretical_worst_case_bytes=(
            n_buckets * num_bitmaps * config.size_model.tuple_bytes
        ),
    )


INSERTION = Experiment(
    name="insertion",
    description="§5.2 insertion & maintenance costs",
    results=("insertion_costs",),
    params=dict(
        seed=1,
        n_nodes=1024,
        num_bitmaps=512,
        n_buckets=100,
        scale=1e-2,
        probe_inserts=2000,
    ),
    run=_run,
    render=lambda report, params: {"insertion_costs": report.format()},
)
