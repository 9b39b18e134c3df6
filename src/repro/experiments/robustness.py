"""Experiment: counting robustness under undetected failures (§3.5).

The paper's fault model: each node fails with probability ``p_f``,
failures are discovered on contact, and with ``R`` replicas the chance
of losing a DHS bit is ``p_f^R`` — "for any practical purpose adequately
small".  The driver crashes a ``p_f`` fraction of nodes *lazily* (the
overlay has not noticed), then measures the counting error and the hop
overhead of routing around the corpses, for several replication degrees.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.errors import ConfigurationError
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    mean_over_draws,
    populate_metric,
    sample_counts,
)
from repro.experiments.report import table
from repro.overlay.chord import ChordRing
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for

__all__ = ["ROBUSTNESS"]


def _robustness_cell(
    seed: int,
    *,
    replication: int,
    draw: int,
    failure_fractions: Tuple[float, ...],
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    estimator: str,
    trials: int,
) -> List[Row]:
    """One (replication, draw): degrade one deployment through every p_f.

    Gives one row per fraction, in ascending order, its error a fraction
    that the reduce averages over the draws in percent.
    """
    items = np.arange(n_items, dtype=np.int64)
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring", replication, draw))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(
            num_bitmaps=num_bitmaps,
            replication=replication,
            estimator=estimator,
            hash_seed=seed + draw,
        ),
        seed=derive_seed(seed, "dhs", replication, draw),
    )
    populate_metric(
        dhs, "docs", items, seed=derive_seed(seed, "load", replication, draw)
    )
    failed = 0
    points: List[Row] = []
    for p_f in failure_fractions:
        target = int(n_nodes * p_f)
        if target > failed:
            extra = target - failed
            alive = [n for n in ring.node_ids() if ring.is_alive(n)]
            rng = rng_for(seed, "fail", replication, draw, target)
            for victim in rng.sample(alive, min(extra, len(alive) - 1)):
                ring.mark_failed(victim)
            failed = target
        sample = sample_counts(
            dhs,
            {"docs": float(n_items)},
            trials=trials,
            seed=derive_seed(seed, "origins", replication, draw, target),
        )
        points.append(
            dict(
                p_f=p_f,
                replication=replication,
                error_pct=sample.mean_abs_rel_error(),
                hops=sample.mean_hops(),
            )
        )
    return points


def _cells(params: Params) -> List[TrialSpec]:
    """One cell per (replication, draw).

    Failure fractions must be ascending: each deployment is populated
    once per random draw and failures accumulate, which both matches how
    a network degrades and keeps the experiment affordable.  Results are
    averaged over ``draws`` independent failure patterns (the PCSA
    collapse is bimodal, so single draws are noisy).
    """
    fractions = tuple(params["failure_fractions"])
    if list(fractions) != sorted(fractions):
        raise ConfigurationError(
            f"failure_fractions must be ascending, got {fractions}"
        )
    return [
        TrialSpec(
            fn=_robustness_cell,
            seed=params["seed"],
            kwargs={
                "replication": replication,
                "draw": draw,
                "failure_fractions": fractions,
            },
        )
        for replication in params["replications"]
        for draw in range(params["draws"])
    ]


ROBUSTNESS = Experiment(
    name="robustness",
    description="§3.5 undetected failures vs replication",
    results=("failure_robustness",),
    params=dict(
        seed=1,
        failure_fractions=(0.0, 0.15, 0.3),
        replications=(0, 3),
        n_nodes=256,
        n_items=300_000,
        num_bitmaps=512,
        estimator="pcsa",
        trials=2,
        draws=3,
    ),
    cells=_cells,
    reduce=mean_over_draws("draws", {"error_pct": 100, "hops": 1}),
    render=table(
        "failure_robustness",
        "Counting under undetected failures (section 3.5, lazy p_f model)",
        [
            ("p_f", "{p_f:.2f}"),
            ("R", "{replication}"),
            ("error %", "{error_pct:.1f}"),
            ("hops", "{hops:.0f}"),
        ],
    ),
)
