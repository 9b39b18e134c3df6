"""Experiment: soft-state maintenance under churn (section 3.3).

The paper's time-out trade-off: long TTLs need fewer refreshes but track
a fluctuating metric sluggishly (stale entries over-count departed
items); short TTLs adapt fast but cost refresh bandwidth — and without
refreshing at all, the counter silently decays to zero.

The driver simulates rounds of node churn where a departing peer's items
leave the system and each joining peer brings fresh items (so the true
cardinality drifts), under different (ttl, refresh period) policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import Experiment, Params
from repro.experiments.report import format_rows
from repro.overlay.chord import ChordRing
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for

__all__ = ["CHURN", "ChurnRow", "format_churn"]


@dataclass
class ChurnRow:
    """One maintenance policy's behaviour under churn."""

    label: str
    mean_error_pct: float  # |estimate/truth - 1|, averaged over rounds
    final_error_pct: float
    refresh_kb: float  # total refresh bandwidth spent


def _policy_label(ttl: Optional[int], refresh_every: Optional[int]) -> str:
    ttl_text = "inf" if ttl is None else str(ttl)
    refresh_text = "never" if refresh_every is None else f"every {refresh_every}"
    return f"ttl={ttl_text}, refresh {refresh_text}"


def _churn_cell(
    seed: int,
    *,
    ttl: Optional[int],
    refresh_every: Optional[int],
    rounds: int,
    churn_fraction: float,
    n_nodes: int,
    items_per_node: int,
    num_bitmaps: int,
) -> ChurnRow:
    """One maintenance policy simulated over every churn round."""
    rng = rng_for(seed, "churn", str(ttl), str(refresh_every))
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring"))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, ttl=ttl, hash_seed=seed),
        seed=derive_seed(seed, "dhs"),
    )
    next_item = 0
    holdings: Dict[int, Set[int]] = {}
    for node_id in ring.node_ids():
        holdings[node_id] = set(range(next_item, next_item + items_per_node))
        next_item += items_per_node
    for node_id, items in holdings.items():
        dhs.insert_bulk("files", items, origin=node_id, now=0)

    refresh_bytes = 0.0
    errors: List[float] = []
    for now in range(1, rounds + 1):
        # Churn: leavers take their items; joiners bring new ones.
        victims = rng.sample(list(ring.node_ids()), int(n_nodes * churn_fraction))
        for victim in victims:
            ring.fail_node(victim)
            holdings.pop(victim, None)
        for _ in victims:
            new_id = rng.randrange(ring.space.size)
            while ring.has_node(new_id):
                new_id = rng.randrange(ring.space.size)
            ring.add_node(new_id)
            items = set(range(next_item, next_item + items_per_node))
            next_item += items_per_node
            holdings[new_id] = items
            dhs.insert_bulk("files", items, origin=new_id, now=now)
        # Periodic refresh by every live owner.
        if refresh_every is not None and now % refresh_every == 0:
            for node_id, items in holdings.items():
                refresh_bytes += dhs.refresh(
                    "files", items, origin=node_id, now=now
                ).bytes
        truth = sum(len(items) for items in holdings.values())
        estimate = dhs.count(
            "files", origin=ring.random_live_node(rng), now=now
        ).estimate()
        errors.append(abs(estimate / truth - 1.0))
    return ChurnRow(
        label=_policy_label(ttl, refresh_every),
        mean_error_pct=100 * sum(errors) / len(errors),
        final_error_pct=100 * errors[-1],
        refresh_kb=refresh_bytes / 1024,
    )


def _cells(params: Params) -> List[TrialSpec]:
    return [
        TrialSpec(
            fn=_churn_cell,
            seed=params["seed"],
            kwargs={"ttl": ttl, "refresh_every": refresh_every},
        )
        for ttl, refresh_every in params["policies"]
    ]


def format_churn(rows: List[ChurnRow]) -> str:
    """Render the churn-policy comparison."""
    return format_rows(
        "Soft-state maintenance under churn (section 3.3)",
        [
            ("policy", "{0.label}"),
            ("mean err %", "{0.mean_error_pct:.1f}"),
            ("final err %", "{0.final_error_pct:.1f}"),
            ("refresh kB", "{0.refresh_kb:.0f}"),
        ],
        rows,
    )


CHURN = Experiment(
    name="churn",
    description="§3.3 soft-state maintenance under churn",
    results=("churn_policies",),
    params=dict(
        seed=1,
        # (ttl, refresh period), None = immortal / never.  Short TTL with
        # frequent refresh tracks closely; a lazy refresh is cheaper and
        # staler; TTL without refresh decays to zero; immortal entries
        # over-count departed items.
        policies=((4, 2), (16, 8), (4, None), (None, None)),
        rounds=24,
        churn_fraction=0.06,
        n_nodes=128,
        items_per_node=150,
        num_bitmaps=64,
    ),
    cells=_cells,
    render=lambda rows, params: {"churn_policies": format_churn(rows)},
)
