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
from typing import List

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    first,
    populate_histogram_metrics,
)
from repro.experiments.report import key_values
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import rng_for
from repro.workloads.relations import make_relation

__all__ = ["INSERTION"]


def _run(
    seed: int,
    *,
    n_nodes: int,
    num_bitmaps: int,
    n_buckets: int,
    scale: float,
    probe_inserts: int,
) -> Row:
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

    return dict(
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


def _cells(params: Params) -> List[TrialSpec]:
    return [TrialSpec(fn=_run, seed=params["seed"])]


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
    cells=_cells,
    reduce=first,
    render=key_values(
        "insertion_costs",
        "Insertion & maintenance costs (section 5.2)",
        [
            ("nodes", "n_nodes"),
            ("bitmaps (m)", "num_bitmaps"),
            ("histogram buckets", "n_buckets"),
            ("relation tuples", "relation_size"),
            ("mean hops / insertion", "mean_hops_per_insert"),
            ("mean bytes / insertion", "mean_bytes_per_insert"),
            (
                "mean storage / node (kB)",
                lambda row: row["mean_storage_bytes_per_node"] / 1024,
            ),
            (
                "max storage / node (kB)",
                lambda row: row["max_storage_bytes_per_node"] / 1024,
            ),
            (
                "theoretical worst case (kB)",
                lambda row: row["theoretical_worst_case_bytes"] / 1024,
            ),
        ],
    ),
)
