"""Experiment: scalability of counting with network size (section 5.2).

The paper's (omitted) figure: average counting hop-count grows only
logarithmically, from ~109/97 hops (sLL/PCSA) at 1024 nodes to ~112/103
at 10240 nodes — and then *extrapolates*.  The ``scalability`` entry sweeps
the node count with the workload held fixed and reports mean counting
hops, accuracy, and per-node storage balance per estimator; with the
memory-lean overlay the sweep extends to the N=10^5–10^6 deployments
the authors could only predict (``sweep_node_counts`` builds the
N=10^3→10^6 ladder the CLI's ``--nodes`` flag caps).

:func:`fit_log2_coefficient` fits ``hops ~ c * log2 N`` to the cells at
or below the paper's evaluated sizes (N<=10^4); the report prints the
fit's prediction next to each measured cell so deviations from the
O(log N) claim are visible at a glance.  Everything in a row is
deterministic — no wall-clock values — so cells stay bit-identical at
any ``DHS_JOBS`` width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import DHSConfig
from repro.errors import ConfigurationError
from repro.experiments.common import (
    Experiment,
    Params,
    build_ring,
    concat,
    count_both,
)
from repro.experiments.report import estimator_pairs, format_rows
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed
from repro.workloads.multitenant import load_balance
from repro.workloads.relations import make_relation

__all__ = [
    "SCALABILITY",
    "ScalabilityRow",
    "fit_log2_coefficient",
    "format_scalability",
    "sweep_node_counts",
]

#: Largest overlay the paper actually evaluated (everything above is
#: extrapolation); the O(log N) fit is anchored to cells at or below it.
PAPER_MAX_NODES = 10_240


@dataclass
class ScalabilityRow:
    """Mean counting cost at one network size."""

    n_nodes: int
    estimator: str
    hops: float
    nodes_visited: float
    lookups: float
    error: float = 0.0
    load_max_mean: float = 0.0
    load_gini: float = 0.0


def sweep_node_counts(
    max_nodes: int, base: int = 1000, factor: int = 10
) -> Tuple[int, ...]:
    """The geometric N=10^3 -> ``max_nodes`` ladder (always ends at max).

    ``sweep_node_counts(1_000_000)`` is the full scale sweep
    (1e3, 1e4, 1e5, 1e6); capping at 1e5 yields the CI-sized one.
    """
    if max_nodes < 1:
        raise ConfigurationError(f"max_nodes must be >= 1, got {max_nodes}")
    counts: List[int] = []
    n = base
    while n < max_nodes:
        counts.append(n)
        n *= factor
    counts.append(max_nodes)
    return tuple(counts)


def _scalability_cell(
    seed: int,
    *,
    n_nodes: int,
    num_bitmaps: int,
    scale: float,
    trials: int,
) -> List[ScalabilityRow]:
    """One network size: same workload (same ``rel`` sub-seed) every cell."""
    n_items = max(1000, int(20_000_000 * scale))
    relation = make_relation("R", n_items, seed=derive_seed(seed, "rel"))
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", n_nodes))
    config = DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed)
    writer, samples = count_both(ring, config, [relation], seed, trials, n_nodes)
    # Counting writes nothing, so this is the storage population left.
    balance = load_balance(
        np.fromiter(
            writer.storage_per_node().values(), dtype=np.float64, count=ring.size
        )
    )
    return [
        ScalabilityRow(
            n_nodes=n_nodes,
            estimator=estimator,
            hops=sample.mean_hops(),
            nodes_visited=sample.mean_nodes(),
            lookups=sum(sample.lookups) / len(sample.lookups),
            error=sample.mean_abs_rel_error(),
            load_max_mean=balance.max_mean,
            load_gini=balance.gini,
        )
        for estimator, sample in samples.items()
    ]


def _cells(params: Params) -> List[TrialSpec]:
    return [
        TrialSpec(
            fn=_scalability_cell, seed=params["seed"], kwargs={"n_nodes": n_nodes}
        )
        for n_nodes in params["node_counts"]
    ]


def fit_log2_coefficient(
    rows: Sequence[ScalabilityRow], max_fit_nodes: int = PAPER_MAX_NODES
) -> float:
    """Through-origin least-squares ``c`` in ``hops ~ c * log2 N``.

    Fitted only on cells at paper-evaluated sizes (``N <= max_fit_nodes``),
    so large-N cells are judged against a prediction they did not shape.
    Returns 0.0 when no cell qualifies.
    """
    numerator = 0.0
    denominator = 0.0
    for row in rows:
        if row.n_nodes > max_fit_nodes:
            continue
        x = math.log2(row.n_nodes)
        numerator += x * row.hops
        denominator += x * x
    return numerator / denominator if denominator else 0.0


def format_scalability(rows: List[ScalabilityRow]) -> str:
    """Render the scalability sweep against the O(log N) fit."""
    coefficient = fit_log2_coefficient(rows)
    return format_rows(
        "Scalability: counting cost vs network size (sLL/PCSA)",
        [
            ("nodes", "{0[0]}"),
            ("hops", "{0[1].hops:.0f} / {0[2].hops:.0f}"),
            ("c*log2N", lambda pair: f"{coefficient * math.log2(pair[0]):.0f}"),
            ("nodes visited", "{0[1].nodes_visited:.0f} / {0[2].nodes_visited:.0f}"),
            ("DHT lookups", "{0[1].lookups:.0f} / {0[2].lookups:.0f}"),
            ("err", lambda p: f"{100.0 * p[1].error:.1f} / {100.0 * p[2].error:.1f}%"),
            ("load max/mean", "{0[1].load_max_mean:.2f}"),
            ("gini", "{0[1].load_gini:.3f}"),
        ],
        estimator_pairs(rows, "n_nodes"),
    )


SCALABILITY = Experiment(
    name="scalability",
    description="§5.2 scalability (hops vs N)",
    results=("scalability",),
    params=dict(
        seed=1,
        node_counts=(256, 1024, 4096),
        num_bitmaps=512,
        scale=1e-2,
        trials=3,
    ),
    cells=_cells,
    reduce=concat,
    render=lambda rows, params: {"scalability": format_scalability(rows)},
    # --nodes N caps the geometric N=10^3 -> N ladder (1000000 runs the
    # full 1e3/1e4/1e5/1e6 sweep); the workload stays fixed.
    node_params=lambda n_nodes: {"node_counts": sweep_node_counts(n_nodes)},
)
