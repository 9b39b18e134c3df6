"""Experiment: the fault matrix — fault kind x intensity x policy x R.

The paper analyses robustness with one knob (the undetected-failure
fraction ``p_f``, §3.5) and one countermeasure (replication degree
``R``).  This driver sweeps the richer fault model of
:mod:`repro.overlay.faults` — ambient message drops, lazy crashes,
crash-with-amnesia rejoins, transient outages — against the recovery
machinery stacked on top of replication:

``none``
    The paper's baseline: no retries, no repair.  Default policy,
    byte-identical to every other experiment when the plan is empty.
``retry``
    :class:`~repro.core.policy.RetryPolicy` with a budget of 3 attempts
    and exponential backoff charged in logical hops.
``retry+repair``
    The retry policy plus both healers: counting read-repairs stale
    replicas in passing, and
    :meth:`~repro.core.dhs.DistributedHashSketch.antientropy` rounds run
    before the measured counts until a round writes nothing (at most
    three).  Both are cost-accounted and inert at ``R = 0``, where there
    are no replicas.
``retry+readrepair``
    Retries plus query-driven read-repair *only* — no background round.
    The honest baseline for proactive reconciliation: replicas heal only
    where a count happens to walk.  The under-read gap between
    ``retry+repair`` and this column on amnesia/partition cells is what
    anti-entropy buys.

Faults bias the sketch one way only: lost or unreachable registers can
*hide* bits, never invent them, so the fault signature is an estimate
below what a lossless count of the same deployment would return.  Raw
error against the true cardinality conflates that with the sketch's own
(sign-varying) estimation error, so each cell also reports
``underread_pct`` — the clamped shortfall of each count against the
cell's :meth:`~repro.core.dhs.DistributedHashSketch.local_sketch`
reference, i.e. exactly the bits the fault cost us.

Besides accuracy and hop cost, the matrix reports what the degraded-mode
machinery says about each run: the fraction of counts flagged
``degraded`` and the mean per-metric ``confidence`` (eq. 5 applied to
budget-exhausted intervals).  A lossy run should *know* it is lossy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.errors import ConfigurationError
from repro.experiments.common import Experiment, Params, populate_metric
from repro.experiments.report import format_rows
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for

__all__ = [
    "FAULTMATRIX",
    "FAULT_MATRIX_KINDS",
    "POLICIES",
    "FaultMatrixRow",
    "PolicySpec",
    "format_faultmatrix",
]


class PolicySpec(NamedTuple):
    """One recovery-policy column: retries plus which healers run."""

    policy: RetryPolicy
    read_repair: bool
    antientropy: bool


_RETRY = RetryPolicy(max_attempts=3, backoff_hops=1)

#: The policy columns (all healers are inert at ``R = 0``).
POLICIES: Dict[str, PolicySpec] = {
    "none": PolicySpec(DEFAULT_POLICY, False, False),
    "retry": PolicySpec(_RETRY, False, False),
    "retry+repair": PolicySpec(_RETRY, True, True),
    "retry+readrepair": PolicySpec(_RETRY, True, False),
}

#: Fault kinds the matrix can sweep (drop = ambient message loss).
FAULT_MATRIX_KINDS = (
    "drop",
    "lazy_crash",
    "crash",
    "amnesia",
    "transient",
    "partition",
)

#: When the measured counts happen, per kind: mid-outage for transient
#: faults and partitions, after the rejoin for amnesia, right after
#: onset otherwise.
_COUNT_TICK = {
    "drop": 1,
    "lazy_crash": 1,
    "crash": 1,
    "amnesia": 3,
    "transient": 2,
    "partition": 2,
}

#: Cap on pre-count anti-entropy rounds (each round is a full sweep;
#: convergence is typically reached in one or two).
_ANTIENTROPY_ROUNDS = 3


def _plan_for(kind: str, intensity: float) -> FaultPlan:
    """The fault script for one matrix cell.

    Every kind strikes at tick 1 so the tick-0 population is always
    clean; ``intensity`` is the drop probability or the victim fraction.
    """
    if kind not in FAULT_MATRIX_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_MATRIX_KINDS}"
        )
    if intensity == 0.0:
        return FaultPlan.empty()
    if kind == "drop":
        return FaultPlan(drop_probability=intensity, drop_from=1)
    if kind == "amnesia":
        event = FaultEvent("amnesia", at=1, fraction=intensity, duration=2)
    elif kind in ("transient", "partition"):
        event = FaultEvent(kind, at=1, fraction=intensity, duration=3)
    else:
        event = FaultEvent(kind, at=1, fraction=intensity, duration=0)
    return FaultPlan(events=(event,))


@dataclass
class FaultMatrixRow:
    """Mean outcome at one (fault, intensity, policy, R) point."""

    fault: str
    intensity: float
    policy: str
    replication: int
    error_pct: float
    underread_pct: float
    hops: float
    degraded_pct: float
    confidence: float
    repair_writes: float


def _faultmatrix_cell(
    seed: int,
    *,
    fault_kind: str,
    intensity: float,
    policy_name: str,
    replication: int,
    draw: int,
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    estimator: str,
    trials: int,
) -> Tuple[float, float, float, float, float, float]:
    """One matrix cell: inject, recover, count.

    Returns mean ``(error, underread, hops, degraded, confidence,
    repair_writes)`` over ``trials`` counts from random origins.
    Deployment, fault and origin seeds deliberately exclude the policy
    name: every policy faces the *identical* ring, victims, drop stream
    and querying nodes, so policy columns are paired comparisons rather
    than fresh draws.  ``underread`` is each count's clamped shortfall
    against the lossless ``local_sketch`` reference of the same
    deployment — the fault-attributable part of the error.
    """
    cell = (fault_kind, str(intensity), replication, draw)
    items = np.arange(n_items, dtype=np.int64)
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring", *cell))
    injector = FaultInjector(
        ring, _plan_for(fault_kind, intensity), seed=derive_seed(seed, "faults", *cell)
    )
    spec = POLICIES[policy_name]
    dhs = DistributedHashSketch(
        injector,
        DHSConfig(
            num_bitmaps=num_bitmaps,
            replication=replication,
            estimator=estimator,
            hash_seed=seed + draw,
            read_repair=spec.read_repair and replication > 0,
        ),
        seed=derive_seed(seed, "dhs", *cell),
        policy=spec.policy,
    )
    populate_metric(dhs, "docs", items, seed=derive_seed(seed, "load", *cell))
    lossless = dhs.local_sketch(items.tolist()).estimate()
    now = _COUNT_TICK[fault_kind]
    injector.advance_to(now)
    repair_writes = 0.0
    if spec.antientropy and replication > 0:
        for _ in range(_ANTIENTROPY_ROUNDS):
            stats = dhs.antientropy(now)
            repair_writes += stats.entries_written
            if stats.entries_written == 0:
                break
    rng = rng_for(seed, "origins", *cell)
    errors: List[float] = []
    underreads: List[float] = []
    hops: List[float] = []
    degraded: List[float] = []
    confidences: List[float] = []
    for _ in range(trials):
        origin = injector.random_live_node(rng)
        result = dhs.count("docs", origin=origin, now=now)
        estimate = result.estimate()
        errors.append(abs(estimate / n_items - 1.0))
        underreads.append(max(0.0, 1.0 - estimate / lossless))
        hops.append(float(result.cost.hops))
        degraded.append(1.0 if result.degraded else 0.0)
        confidences.append(min(result.confidence.values(), default=1.0))
        repair_writes += result.cost.repair_writes
    return (
        sum(errors) / trials,
        sum(underreads) / trials,
        sum(hops) / trials,
        sum(degraded) / trials,
        sum(confidences) / trials,
        repair_writes / trials,
    )


def _cells(params: Params) -> List[TrialSpec]:
    """One independent deployment per (kind, intensity, policy, R, draw)."""
    for name in params["policies"]:
        if name not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
            )
    return [
        TrialSpec(
            fn=_faultmatrix_cell,
            seed=params["seed"],
            kwargs={
                "fault_kind": kind,
                "intensity": intensity,
                "policy_name": policy,
                "replication": replication,
                "draw": draw,
            },
        )
        for kind, intensity, policy, replication in _points(params)
        for draw in range(params["draws"])
    ]


def _points(params: Params) -> List[Tuple[str, float, str, int]]:
    return [
        (kind, intensity, policy, replication)
        for kind in params["fault_kinds"]
        for intensity in params["intensities"]
        for policy in params["policies"]
        for replication in params["replications"]
    ]


def _reduce(
    results: List[Tuple[float, ...]], params: Params
) -> List[FaultMatrixRow]:
    """Average every matrix point over its draws."""
    draws = params["draws"]
    rows: List[FaultMatrixRow] = []
    for index, (kind, intensity, policy, replication) in enumerate(_points(params)):
        points = results[index * draws : (index + 1) * draws]
        mean = [sum(column) / len(points) for column in zip(*points)]
        rows.append(
            FaultMatrixRow(
                fault=kind,
                intensity=intensity,
                policy=policy,
                replication=replication,
                error_pct=100 * mean[0],
                underread_pct=100 * mean[1],
                hops=mean[2],
                degraded_pct=100 * mean[3],
                confidence=mean[4],
                repair_writes=mean[5],
            )
        )
    return rows


def format_faultmatrix(rows: List[FaultMatrixRow]) -> str:
    """Render the fault matrix grid."""
    return format_rows(
        "Fault matrix: fault x intensity x policy x replication",
        [
            ("fault", "{0.fault}"),
            ("p", "{0.intensity:.2f}"),
            ("policy", "{0.policy}"),
            ("R", "{0.replication}"),
            ("error %", "{0.error_pct:.1f}"),
            ("under %", "{0.underread_pct:.1f}"),
            ("hops", "{0.hops:.0f}"),
            ("degr %", "{0.degraded_pct:.0f}"),
            ("conf", "{0.confidence:.3f}"),
            ("repairs", "{0.repair_writes:.1f}"),
        ],
        rows,
    )


#: Every random choice flows through ``derive_seed`` label paths, so the
#: grid is bit-identical at any ``DHS_JOBS`` width.
FAULTMATRIX = Experiment(
    name="faultmatrix",
    description="fault kind x intensity x policy x R matrix",
    results=("fault_matrix",),
    params=dict(
        seed=3,
        fault_kinds=("drop", "lazy_crash", "amnesia"),
        intensities=(0.1, 0.3),
        policies=("none", "retry+repair"),
        replications=(0, 2),
        n_nodes=64,
        n_items=10_000,
        num_bitmaps=32,
        estimator="sll",
        trials=2,
        draws=2,
    ),
    cells=_cells,
    reduce=_reduce,
    render=lambda rows, params: {"fault_matrix": format_faultmatrix(rows)},
)
