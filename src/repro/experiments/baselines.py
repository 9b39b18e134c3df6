"""Experiment: DHS versus the four related-work families.

The paper argues (section 1) that each prior family violates at least
one of its six constraints.  This driver measures the claims head to
head on one scenario — items with cross-node duplicates — reporting per
method: estimation error on the *distinct* count, query cost, rounds,
access-load imbalance, and duplicate (in)sensitivity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.base import distinct_count
from repro.baselines.convergecast import ConvergecastAggregator
from repro.baselines.gossip import PushSumGossip
from repro.baselines.sampling import SamplingEstimator
from repro.baselines.single_node import PartitionedCounter, SingleNodeCounter
from repro.baselines.sketch_gossip import SketchGossip
from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import Experiment, Params, Row, build_ring
from repro.experiments.report import table
from repro.overlay.chord import ChordRing
from repro.overlay.stats import OpCost
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for
from repro.workloads.assignment import assign_items
from repro.workloads.multisets import zipf_duplicated_multiset

__all__ = ["BASELINES"]


def _baseline_scenario(
    seed: int, n_nodes: int, n_distinct: int, total_items: int
) -> Tuple[ChordRing, Dict[int, List[int]], float]:
    """The shared scenario, rebuilt identically from the same sub-seeds."""
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring"))
    items = zipf_duplicated_multiset(
        n_distinct, total=total_items, seed=derive_seed(seed, "items")
    )
    scenario = assign_items(items, list(ring.node_ids()), seed=derive_seed(seed, "assign"))
    truth = float(distinct_count(scenario))
    return ring, scenario, truth


def _baseline_cell(
    seed: int,
    *,
    method: str,
    n_nodes: int,
    n_distinct: int,
    total_items: int,
    num_bitmaps: int,
    origin: Optional[int] = None,
) -> Row:
    """Measure one method on the (rebuilt) shared scenario.

    ``origin`` carries the querying node pre-drawn by the driver, so the
    sequential ``query-origin`` rng stream stays identical to the serial
    run no matter how the cells are scheduled.
    """
    ring, scenario, truth = _baseline_scenario(seed, n_nodes, n_distinct, total_items)

    def measure(
        label: str, estimate: float, cost: OpCost, rounds: int, insensitive: bool
    ) -> Row:
        return dict(
            method=label,
            estimate=estimate,
            error_pct=100 * abs(estimate - truth) / truth,
            query_hops=cost.hops,
            query_bytes=cost.bytes,
            rounds=rounds,
            load_imbalance=ring.load.imbalance(ring.node_ids()),
            duplicate_insensitive=insensitive,
        )

    if method == "dhs":
        # DHS (ours): populate from every holding node, count once.
        dhs = DistributedHashSketch(
            ring,
            DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
            seed=derive_seed(seed, "dhs"),
        )
        # Per-item insertion: one routed update per occurrence, matching
        # the single-node counter's accounting so load imbalance is
        # comparable.
        for node_id, node_items in scenario.items():
            dhs.insert_many("docs", node_items, origin=node_id)
        assert origin is not None
        result = dhs.count("docs", origin=origin)
        return measure("DHS (sLL)", result.estimate(), result.cost, 1, True)

    if method == "single":
        counter = SingleNodeCounter(ring, "docs", distinct=True)
        counter.populate(scenario)
        assert origin is not None
        single = counter.query(origin=origin)
        return measure("single-node counter", single.estimate, single.cost, 1, True)

    if method == "gossip":
        gossip_result, _ = PushSumGossip(ring, seed=derive_seed(seed, "gossip")).run(
            scenario, epsilon=0.02
        )
        return measure(
            "push-sum gossip",
            gossip_result.estimate,
            gossip_result.cost,
            gossip_result.rounds,
            False,
        )

    if method == "partitioned":
        # Hash-partitioned counter (P nodes "merely mitigate" the hotspot).
        partitioned = PartitionedCounter(ring, "docs", partitions=8)
        partitioned.populate(scenario)
        assert origin is not None
        part_result = partitioned.query(origin=origin)
        return measure(
            "partitioned counter (P=8)", part_result.estimate, part_result.cost, 1, True
        )

    if method == "sketch-gossip":
        # Gossip with sketch payloads (duplicate-insensitive, pricey rounds).
        sketch_gossip_result, _ = SketchGossip(
            ring,
            DHSConfig(num_bitmaps=num_bitmaps),
            seed=derive_seed(seed, "sketch-gossip"),
        ).run(scenario)
        return measure(
            "sketch gossip",
            sketch_gossip_result.estimate,
            sketch_gossip_result.cost,
            sketch_gossip_result.rounds,
            True,
        )

    if method == "convergecast":
        convergecast = ConvergecastAggregator(
            ring, use_sketches=True, sketch_config=DHSConfig(num_bitmaps=num_bitmaps)
        ).query(scenario, root=ring.node_ids()[0])
        return measure(
            "convergecast (sketch)",
            convergecast.estimate,
            convergecast.cost,
            1,
            True,
        )

    if method == "sampling":
        rng = rng_for(seed, "sample-origin")
        sampled = SamplingEstimator(ring, seed=derive_seed(seed, "sampling")).query(
            scenario,
            sample_size=max(2, n_nodes // 8),
            origin=ring.random_live_node(rng),
        )
        return measure("node sampling", sampled.estimate, sampled.cost, 1, False)

    raise ValueError(f"unknown baseline method {method!r}")


#: Every family, plus DHS, in table order.
_METHODS = (
    "dhs",
    "single",
    "gossip",
    "partitioned",
    "sketch-gossip",
    "convergecast",
    "sampling",
)


def _cells(params: Params) -> List[TrialSpec]:
    # The serial driver drew three origins from one sequential rng (DHS,
    # then single-node, then partitioned).  Draw them up front in that
    # exact order so per-method cells are scheduling-independent.
    seed = params["seed"]
    ring, _, _ = _baseline_scenario(
        seed, params["n_nodes"], params["n_distinct"], params["total_items"]
    )
    query_rng = rng_for(seed, "query-origin")
    origins = {
        method: ring.random_live_node(query_rng)
        for method in ("dhs", "single", "partitioned")
    }
    return [
        TrialSpec(
            fn=_baseline_cell,
            seed=seed,
            kwargs={"method": method, "origin": origins.get(method)},
        )
        for method in _METHODS
    ]


BASELINES = Experiment(
    name="baselines",
    description="§1 related-work families comparison",
    results=("baselines",),
    params=dict(
        seed=1,
        n_nodes=128,
        n_distinct=20_000,
        total_items=60_000,
        num_bitmaps=128,
    ),
    cells=_cells,
    # Every distinct item appears at least once: the truth is n_distinct.
    render=table(
        "baselines",
        "DHS vs related-work families (distinct truth: {n_distinct:,})",
        [
            ("method", "{method}"),
            ("estimate", "{estimate:,.0f}"),
            ("err %", "{error_pct:.1f}"),
            ("hops", "{query_hops}"),
            ("kB", lambda row: f"{row['query_bytes'] / 1024:.1f}"),
            ("rounds", "{rounds}"),
            ("load max/mean", "{load_imbalance:.1f}"),
            ("dup-insens.", lambda row: "yes" if row["duplicate_insensitive"] else "NO"),
        ],
    ),
)
