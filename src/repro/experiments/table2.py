"""Experiment: Table 2 — counting costs and accuracy (sLL / PCSA).

For each number of bitmaps ``m`` the paper reports, per estimator: nodes
visited, routing hops, bandwidth, and relative estimation error when
counting the cardinalities of the four relations Q/R/S/T from randomly
chosen querying nodes.

Insertion is estimator-independent, so each ``m`` populates one overlay
and both estimators count the *same* stored bits — exactly the paper's
setup of evaluating DHS-sLL and DHS-PCSA "within DHS".
"""

from __future__ import annotations

from typing import List

from repro.core.config import DHSConfig
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    concat,
    count_both,
)
from repro.experiments.report import table
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed
from repro.workloads.relations import standard_relations

__all__ = ["TABLE2"]


def _table2_cell(
    seed: int,
    *,
    m: int,
    n_nodes: int,
    scale: float,
    trials: int,
    lim: int,
    key_bits: int,
) -> List[Row]:
    """One ``m``: populate once, count with both estimators."""
    relations = standard_relations(scale=scale, seed=derive_seed(seed, "relations"))
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", m))
    config = DHSConfig(key_bits=key_bits, num_bitmaps=m, lim=lim, hash_seed=seed)
    _, samples = count_both(ring, config, relations, seed, trials, m)
    return [
        dict(
            m=m,
            estimator=estimator,
            nodes_visited=sample.mean_nodes(),
            hops=sample.mean_hops(),
            bw_kbytes=sample.mean_bytes() / 1024,
            error_pct=sample.mean_abs_rel_error() * 100,
        )
        for estimator, sample in samples.items()
    ]


def _cells(params: Params) -> List[TrialSpec]:
    return [
        TrialSpec(fn=_table2_cell, seed=params["seed"], kwargs={"m": m})
        for m in params["ms"]
    ]


#: The network is scaled down alongside the workload: retry success is
#: governed by the items-per-(bitmap x node) ratio ``alpha ~ n / (2 m N)``,
#: so shrinking ``n`` 1000x while keeping ``N = 1024`` would push every
#: configuration past the paper's m=4096 collapse point.  ``N = 128``
#: with a 1/50 workload preserves the regime Table 2 was measured in
#: (see EXPERIMENTS.md).
TABLE2 = Experiment(
    name="table2",
    description="Table 2: counting costs and accuracy",
    results=("table2_counting",),
    params=dict(
        seed=1,
        n_nodes=128,
        ms=(128, 256, 512, 1024),
        scale=2e-2,
        trials=2,
        lim=5,
        key_bits=24,
    ),
    cells=_cells,
    reduce=concat,
    render=table(
        "table2_counting",
        "Table 2: counting costs, sLL/PCSA (workload scale {scale:g})",
        [
            ("m", "{m}"),
            ("nodes visited", "{sll[nodes_visited]:.0f} / {pcsa[nodes_visited]:.0f}"),
            ("hops", "{sll[hops]:.0f} / {pcsa[hops]:.0f}"),
            ("BW (kBytes)", "{sll[bw_kbytes]:.1f} / {pcsa[bw_kbytes]:.1f}"),
            ("error (%)", "{sll[error_pct]:.1f} / {pcsa[error_pct]:.1f}"),
        ],
        pair="m",
    ),
)
