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
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import DHSConfig
from repro.errors import ConfigurationError
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
from repro.workloads.multitenant import load_balance
from repro.workloads.relations import make_relation

__all__ = [
    "SCALABILITY",
    "fit_log2_coefficient",
    "sweep_node_counts",
]

#: Largest overlay the paper actually evaluated (everything above is
#: extrapolation); the O(log N) fit is anchored to cells at or below it.
PAPER_MAX_NODES = 10_240


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
) -> List[Row]:
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
        dict(
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
    rows: Sequence[Row], max_fit_nodes: int = PAPER_MAX_NODES
) -> float:
    """Through-origin least-squares ``c`` in ``hops ~ c * log2 N``.

    Fitted only on cells at paper-evaluated sizes (``N <= max_fit_nodes``),
    so large-N cells are judged against a prediction they did not shape.
    Returns 0.0 when no cell qualifies.
    """
    numerator = 0.0
    denominator = 0.0
    for row in rows:
        if row["n_nodes"] > max_fit_nodes:
            continue
        x = math.log2(row["n_nodes"])
        numerator += x * row["hops"]
        denominator += x * x
    return numerator / denominator if denominator else 0.0


def _with_fit(results: List[List[Row]], params: Params) -> List[Row]:
    """Every cell's rows, each with ``fit_hops``, the fit's hops at its N."""
    rows = concat(results, params)
    coefficient = fit_log2_coefficient(rows)
    return [
        {**row, "fit_hops": coefficient * math.log2(row["n_nodes"])} for row in rows
    ]


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
    reduce=_with_fit,
    render=table(
        "scalability",
        "Scalability: counting cost vs network size (sLL/PCSA)",
        [
            ("nodes", "{n_nodes}"),
            ("hops", "{sll[hops]:.0f} / {pcsa[hops]:.0f}"),
            ("c*log2N", "{sll[fit_hops]:.0f}"),
            ("nodes visited", "{sll[nodes_visited]:.0f} / {pcsa[nodes_visited]:.0f}"),
            ("DHT lookups", "{sll[lookups]:.0f} / {pcsa[lookups]:.0f}"),
            (
                "err",
                lambda pair: (
                    f"{100.0 * pair['sll']['error']:.1f} / "
                    f"{100.0 * pair['pcsa']['error']:.1f}%"
                ),
            ),
            ("load max/mean", "{sll[load_max_mean]:.2f}"),
            ("gini", "{sll[load_gini]:.3f}"),
        ],
        pair="n_nodes",
    ),
    # --nodes N caps the geometric N=10^3 -> N ladder (1000000 runs the
    # full 1e3/1e4/1e5/1e6 sweep); the workload stays fixed.
    node_params=lambda n_nodes: {"node_counts": sweep_node_counts(n_nodes)},
)
