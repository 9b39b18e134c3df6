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

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import DHSConfig
from repro.experiments.common import (
    CountSample,
    Experiment,
    Params,
    build_ring,
    count_both,
)
from repro.experiments.report import estimator_pairs, format_rows
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed
from repro.workloads.relations import make_relation

__all__ = ["ACCURACY", "AccuracyRow", "format_accuracy"]


@dataclass
class AccuracyRow:
    """Mean |relative error| for one (m, estimator) configuration."""

    m: int
    estimator: str
    error_pct: float
    bias_pct: float


def _accuracy_cell(
    seed: int,
    *,
    m: int,
    hash_seed: int,
    n_nodes: int,
    scale: float,
    trials: int,
    lim: int,
) -> Dict[str, CountSample]:
    """One independent ``(m, hash_seed)`` cell: populate, count both ways."""
    n_items = max(2000, int(20_000_000 * scale))
    relation = make_relation("R", n_items, seed=derive_seed(seed, "rel", hash_seed))
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", m, hash_seed))
    config = DHSConfig(num_bitmaps=m, lim=lim, hash_seed=hash_seed)
    return count_both(ring, config, [relation], seed, trials, m, hash_seed)[1]


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


def _reduce(
    results: List[Dict[str, CountSample]], params: Params
) -> List[AccuracyRow]:
    """Average each (m, estimator) over its hash seeds."""
    rows: List[AccuracyRow] = []
    cursor = 0
    for m in params["ms"]:
        samples: Dict[str, List[CountSample]] = {"sll": [], "pcsa": []}
        for _ in params["hash_seeds"]:
            cell = results[cursor]
            cursor += 1
            for estimator in ("sll", "pcsa"):
                samples[estimator].append(cell[estimator])
        for estimator, collected in samples.items():
            errors = [s.mean_abs_rel_error() for s in collected]
            biases = [s.mean_rel_bias() for s in collected]
            rows.append(
                AccuracyRow(
                    m=m,
                    estimator=estimator,
                    error_pct=100 * sum(errors) / len(errors),
                    bias_pct=100 * sum(biases) / len(biases),
                )
            )
    return rows


def format_accuracy(rows: List[AccuracyRow], lim: int = 5) -> str:
    """Render the sweep with sLL/PCSA columns side by side."""
    return format_rows(
        f"Accuracy vs number of bitmaps (lim = {lim})",
        [
            ("m", "{0[0]}"),
            ("sLL err %", "{0[1].error_pct:.1f}"),
            ("PCSA err %", "{0[2].error_pct:.1f}"),
            ("sLL bias %", "{0[1].bias_pct:+.1f}"),
            ("PCSA bias %", "{0[2].bias_pct:+.1f}"),
        ],
        estimator_pairs(rows, "m"),
    )


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
    reduce=_reduce,
    render=lambda rows, params: {
        "accuracy_vs_m": format_accuracy(rows, params["lim"])
    },
)
