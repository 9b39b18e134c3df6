"""Experiment: multi-tenant Zipf workload at deployment scale.

The paper's uniform-load claim (section 5.1) is evaluated with one
relation at a time; a production deployment serves 10^5–10^6 concurrent
``metric_id``s with heavy-tailed popularity.  This driver loads that
workload — Zipf(theta) traffic split across ``n_tenants`` tenant
metrics, every operation inserted from a uniformly random node — and
measures what the 2006 authors could only extrapolate: per-node storage
balance (max/mean entry ratio and Gini coefficient) and counting
accuracy/cost for the hottest tenants, as the overlay grows to the
scale tier's N=10^5–10^6 deployments.

Deterministic and ``DHS_JOBS``-parallel per the repo contract: every
random choice flows through explicit seeds, rows contain no wall-clock
values, and the per-cell gauge (membership bytes per node) is a pure
function of the deployment.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    sample_counts,
)
from repro.experiments.report import table
from repro.obs import runtime as obs
from repro.obs.metrics import GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE
from repro.overlay.stats import OpCost
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed
from repro.workloads.multitenant import (
    TENANT_ID_STRIDE,
    load_balance,
    tenant_metric,
    tenant_op_counts,
)

__all__ = [
    "MULTITENANT",
    "populate_tenants",
]


def populate_tenants(
    dhs: DistributedHashSketch,
    ops: np.ndarray,
    seed: int = 0,
    now: int = 0,
) -> OpCost:
    """Insert every tenant's items, each op from a random inserter node.

    ``ops[t]`` distinct items from tenant ``t``'s private id block go in
    under :func:`~repro.workloads.multitenant.tenant_metric`.  It keeps
    its own owner draw (one for all tenants) and (tenant, inserter)
    grouping rather than calling ``populate_metric`` per tenant: that
    would run ``assign_uniform`` once per tenant, and each run bincounts
    over all N nodes, so the preset's 10^6 tenants would cost
    10^6 × N work.
    """
    active = np.nonzero(ops)[0]
    counts = ops[active]
    total = int(counts.sum())
    if total == 0:
        return OpCost()
    # Item ids: each active tenant's private block, concatenated.
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    tenant_of = np.repeat(active, counts)
    item_ids = tenant_of.astype(np.int64) * np.int64(TENANT_ID_STRIDE) + offsets
    vectors, positions = dhs._inserter.observations(item_ids)
    node_list = list(dhs.dht.node_ids())
    rng = np.random.default_rng(derive_seed(seed, "owners") % (2**32))
    inserter = rng.integers(0, len(node_list), size=total)
    # One bulk insert per (tenant, inserting node) group.
    order = np.lexsort((inserter, tenant_of))
    sorted_tenant = tenant_of[order]
    sorted_node = inserter[order]
    boundaries = (
        np.nonzero(
            (sorted_tenant[1:] != sorted_tenant[:-1])
            | (sorted_node[1:] != sorted_node[:-1])
        )[0]
        + 1
    )
    group_starts = np.concatenate(([0], boundaries, [total]))
    total_cost = OpCost()
    for group in range(len(group_starts) - 1):
        lo, hi = int(group_starts[group]), int(group_starts[group + 1])
        indices = order[lo:hi]
        total_cost.add(
            dhs._inserter.insert_observation_arrays(
                tenant_metric(int(sorted_tenant[lo])),
                vectors[indices],
                positions[indices],
                origin=node_list[int(sorted_node[lo])],
                now=now,
            )
        )
    return total_cost


def _multitenant_cell(
    seed: int,
    *,
    n_nodes: int,
    n_tenants: int,
    total_ops: int,
    theta: float,
    num_bitmaps: int,
    count_tenants: int,
    trials: int,
) -> Row:
    """One overlay size: load the tenant mix, snapshot balance, count."""
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", n_nodes))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
        seed=derive_seed(seed, "dhs", n_nodes),
    )
    ops = tenant_op_counts(
        n_tenants, total_ops, theta=theta, seed=derive_seed(seed, "zipf", n_nodes)
    )
    populate_tenants(dhs, ops, seed=derive_seed(seed, "load", n_nodes))
    storage = np.fromiter(
        dhs.storage_per_node().values(), dtype=np.float64, count=ring.size
    )
    balance = load_balance(storage)
    # Count the hottest tenants (deterministic tie-break on tenant id).
    active = np.nonzero(ops)[0]
    ranked = active[np.lexsort((active, -ops[active]))]
    chosen = [int(tenant) for tenant in ranked[:count_tenants]]
    truths = {tenant_metric(tenant): float(ops[tenant]) for tenant in chosen}
    sample = sample_counts(
        dhs, truths, trials=trials, seed=derive_seed(seed, "origins", n_nodes)
    )
    bytes_per_node = ring.membership_nbytes() / ring.size
    if obs.METERING:
        # Pure function of the deployment: safe inside a trial cell.
        obs.METRICS.set_gauge(GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE, bytes_per_node)
    return dict(
        n_nodes=n_nodes,
        n_tenants=n_tenants,
        active_tenants=int(active.size),
        total_ops=total_ops,
        theta=theta,
        storage_max_mean=balance.max_mean,
        storage_gini=balance.gini,
        hops=sample.mean_hops(),
        error=sample.mean_abs_rel_error(),
        membership_bytes_per_node=bytes_per_node,
    )


def _cells(params: Params) -> List[TrialSpec]:
    """One cell per overlay size.

    At ``scale=1.0`` the workload is the ROADMAP target — 10^6 tenants,
    2x10^7 operations; smaller scales shrink both proportionally with a
    floor that keeps the Zipf shape measurable.
    """
    scale = params["scale"]
    n_tenants = params["n_tenants"]
    if n_tenants is None:
        n_tenants = max(64, int(1_000_000 * scale))
    total_ops = params["total_ops"]
    if total_ops is None:
        total_ops = max(8 * n_tenants, int(20_000_000 * scale))
    return [
        TrialSpec(
            fn=_multitenant_cell,
            seed=params["seed"],
            kwargs={
                "n_nodes": n_nodes,
                "n_tenants": n_tenants,
                "total_ops": total_ops,
            },
        )
        for n_nodes in params["node_counts"]
    ]


def _by_size(results: List[Row], params: Params) -> List[Row]:
    """The cells' rows, smallest overlay first."""
    return sorted(results, key=lambda row: row["n_nodes"])


MULTITENANT = Experiment(
    name="multitenant",
    description="multi-tenant Zipf workload: storage balance at scale",
    results=(),
    params=dict(
        seed=1,
        node_counts=(256, 1024),
        # None: derived from scale.
        n_tenants=None,
        total_ops=None,
        theta=0.7,
        num_bitmaps=64,
        count_tenants=4,
        trials=2,
        scale=1e-2,
    ),
    cells=_cells,
    reduce=_by_size,
    render=table(
        "multitenant",
        "Multi-tenant Zipf workload (theta={theta:g})",
        [
            ("nodes", "{n_nodes}"),
            ("tenants", "{active_tenants}/{n_tenants}"),
            ("ops", "{total_ops}"),
            ("storage max/mean", "{storage_max_mean:.2f}"),
            ("gini", "{storage_gini:.3f}"),
            ("hops", "{hops:.0f}"),
            ("err", lambda row: f"{100.0 * row['error']:.1f}%"),
            ("B/node", "{membership_bytes_per_node:.1f}"),
        ],
    ),
    node_params=lambda n_nodes: {"node_counts": (n_nodes,)},
)
