"""Experiment: per-cell histogram accuracy (section 5.2, text).

The paper: mean per-cell estimation error of ~8.6% with 64 bitmap
vectors, dropping to ~7.7% at 128 and ~6.8% at 256 — i.e. cell error
tracks the sketch's ``O(1/sqrt(m))`` noise because probe misses are
negligible in their regime.

Per-bucket cardinalities are ~1/buckets of the relation, so staying in
the miss-free regime needs ``n_bucket >> 2 m N``; the defaults use a
small overlay and a moderately large relation to reproduce the paper's
declining-error-with-m shape at laptop scale.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import Experiment, Params, Row, concat
from repro.experiments.report import table
from repro.experiments.table3 import reconstruct_both
from repro.sim.parallel import TrialSpec

__all__ = ["HISTOGRAM_ACCURACY"]


def _histogram_accuracy_cell(
    seed: int,
    *,
    m: int,
    n_nodes: int,
    n_buckets: int,
    n_items: int,
    trials: int,
) -> List[Row]:
    """One ``m``: rebuild the (seed-identical) workload, measure both estimators."""
    return [
        dict(
            m=m,
            estimator=estimator,
            cell_error_pct=100
            * sum(run.histogram.mean_cell_error(truth) for run in runs)
            / trials,
            sketch_sigma_pct=100 * counter.config.sketch_class().expected_std_error(m),
        )
        for estimator, counter, truth, runs in reconstruct_both(
            seed,
            m=m,
            n_nodes=n_nodes,
            n_buckets=n_buckets,
            n_items=n_items,
            trials=trials,
            origins="origins",
        )
    ]


def _cells(params: Params) -> List[TrialSpec]:
    return [
        TrialSpec(
            fn=_histogram_accuracy_cell, seed=params["seed"], kwargs={"m": m}
        )
        for m in params["ms"]
    ]


HISTOGRAM_ACCURACY = Experiment(
    name="histogram-accuracy",
    description="§5.2 per-cell histogram error",
    results=("histogram_accuracy",),
    # Miss-free regime: a small overlay and a moderately large relation.
    params=dict(
        seed=1,
        ms=(64, 128, 256),
        n_nodes=64,
        n_buckets=20,
        n_items=2_400_000,
        trials=2,
    ),
    cells=_cells,
    reduce=concat,
    render=table(
        "histogram_accuracy",
        "Histogram per-cell error vs m",
        [
            ("m", "{m}"),
            ("sLL cell err %", "{sll[cell_error_pct]:.1f}"),
            ("PCSA cell err %", "{pcsa[cell_error_pct]:.1f}"),
            (
                "theory sigma % (sLL/PCSA)",
                "{sll[sketch_sigma_pct]:.1f} / {pcsa[sketch_sigma_pct]:.1f}",
            ),
        ],
        pair="m",
    ),
)
