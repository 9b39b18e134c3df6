"""Experiment: accuracy versus number of bitmaps (section 5.2, "Accuracy").

The paper: errors around 2.9% (PCSA) / 5% (sLL) for moderate ``m``, then
a collapse once ``m`` is so large that ``lim = 5`` probes stop finding
the sparse per-bitmap bits — at m = 4096 PCSA degrades to ~44% while sLL
only reaches ~15%, because sLL probes the higher-order (better
replicated, relative to what it needs) bits first.

The ``accuracy`` entry reproduces the sweep; the crossover point depends
on the items-per-node ratio, so at reduced workload scale the collapse
arrives at proportionally smaller ``m`` — the *shape* (PCSA degrading
much faster than sLL past the collapse) is the reproduced claim.
"""

from __future__ import annotations

from typing import List

from repro.core.config import DHSConfig
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    count_both,
    mean_over_draws,
)
from repro.experiments.report import table
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed
from repro.workloads.relations import make_relation

__all__ = ["ACCURACY"]


def _accuracy_cell(
    seed: int,
    *,
    m: int,
    hash_seed: int,
    n_nodes: int,
    scale: float,
    trials: int,
    lim: int,
) -> List[Row]:
    """One independent ``(m, hash_seed)`` cell: populate, count both ways.

    Its rows hold each estimator's error and bias as fractions; the
    reduce averages them over the hash seeds in percent.
    """
    n_items = max(2000, int(20_000_000 * scale))
    relation = make_relation("R", n_items, seed=derive_seed(seed, "rel", hash_seed))
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", m, hash_seed))
    config = DHSConfig(num_bitmaps=m, lim=lim, hash_seed=hash_seed)
    return [
        dict(
            m=m,
            estimator=estimator,
            error_pct=sample.mean_abs_rel_error(),
            bias_pct=sample.mean_rel_bias(),
        )
        for estimator, sample in count_both(
            ring, config, [relation], seed, trials, m, hash_seed
        )[1].items()
    ]


def _cells(params: Params) -> List[TrialSpec]:
    return [
        TrialSpec(
            fn=_accuracy_cell,
            seed=params["seed"],
            kwargs={"m": m, "hash_seed": hash_seed},
        )
        for m in params["ms"]
        for hash_seed in params["hash_seeds"]
    ]


ACCURACY = Experiment(
    name="accuracy",
    description="§5.2 accuracy vs m (collapse at large m)",
    results=("accuracy_vs_m",),
    params=dict(
        seed=1,
        ms=(64, 128, 256, 512, 1024, 2048, 4096),
        n_nodes=128,
        scale=1e-2,
        trials=2,
        hash_seeds=(0, 1),
        lim=5,
    ),
    cells=_cells,
    reduce=mean_over_draws("hash_seeds", {"error_pct": 100, "bias_pct": 100}),
    render=table(
        "accuracy_vs_m",
        "Accuracy vs number of bitmaps (lim = {lim})",
        [
            ("m", "{m}"),
            ("sLL err %", "{sll[error_pct]:.1f}"),
            ("PCSA err %", "{pcsa[error_pct]:.1f}"),
            ("sLL bias %", "{sll[bias_pct]:+.1f}"),
            ("PCSA bias %", "{pcsa[bias_pct]:+.1f}"),
        ],
        pair="m",
    ),
)
