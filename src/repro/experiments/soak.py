"""Experiment: continuous-churn soak — does the system *stay* healed?

The fault matrix measures recovery from a single scripted fault.  A
long-lived deployment never gets that luxury: nodes leave, crash, lose
their disks and partition away *while* writes and counts keep flowing.
This driver runs a sustained insert+count workload over many logical
ticks against a periodic fault schedule and watches the health signals
the robustness machinery exposes:

* **replica divergence** — :func:`repro.core.maintenance.replica_divergence`
  after every tick: how many primary bits are missing from their
  responsive replica chain right now.  A healthy steady state is 0.
* **ticks to convergence** — after each fault's recovery point (the
  amnesia rejoin, the partition healing, the post-crash join), how many
  ticks until divergence returns to 0.
* **repair bandwidth** — every anti-entropy byte is charged through the
  :class:`~repro.overlay.messages.SizeModel` (digest floor + shipped
  segment summaries), reported per round.
* **under-read** — each count's clamped shortfall against an
  incrementally-maintained lossless reference sketch, plus the
  degraded-mode confidence the count reports about itself.

Two maintenance policies face the *identical* ring, fault schedule and
traffic (policy-independent seed paths): ``readrepair`` heals only where
a count happens to walk; ``antientropy`` additionally runs anti-entropy
reconciliation through the :class:`~repro.core.maintenance.MaintenanceScheduler`
every ``antientropy_every`` ticks.

Churn model: leavers are FaultPlan ``crash`` events (membership loss,
data gone); the driver tops the membership back up with fresh empty
joiners the tick after, so the ring size is stationary while its
composition churns.  Amnesia, partition and transient events cycle in
between.  With ``fault_every=None`` the plan is empty, no join RNG is
ever drawn, and the run is a pure function of the seed — the trace
digest pins that byte-identity (tests/experiments/test_soak.py, run
serially and under ``DHS_JOBS=2`` by the CI test job, compares digests
across runs and worker counts).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import MaintenanceConfig
from repro.core.policy import RetryPolicy
from repro.errors import ConfigurationError
from repro.experiments.common import Experiment, Params, Row
from repro.experiments.faultmatrix import FAULTMATRIX
from repro.experiments.report import table
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for

__all__ = [
    "GATE",
    "SOAK",
    "SOAK_FAULT_CYCLE",
    "SOAK_POLICIES",
    "soak_plan",
]

#: Fault kinds injected in rotation, one every ``fault_every`` ticks.
SOAK_FAULT_CYCLE: Tuple[str, ...] = ("amnesia", "partition", "crash", "transient")

#: policy name -> anti-entropy cadence (None = read-repair only).
SOAK_POLICIES: Dict[str, Optional[int]] = {
    "readrepair": None,
    "antientropy": 1,
}

_RETRY = RetryPolicy(max_attempts=3, backoff_hops=1)


def soak_plan(
    ticks: int,
    fault_every: Optional[int],
    fraction: float,
    duration: int,
    kinds: Sequence[str] = SOAK_FAULT_CYCLE,
) -> FaultPlan:
    """Periodic fault schedule: one event of the cycling kind per period.

    ``fault_every=None`` (or 0) yields the empty plan — the bit-identical
    no-fault baseline.  Events stop early enough (``at + duration <
    ticks``) that every fault's recovery point lands inside the run, so
    end-of-run divergence is a meaningful convergence check.
    """
    if not fault_every:
        return FaultPlan.empty()
    events: List[FaultEvent] = []
    index = 0
    for at in range(fault_every, ticks, fault_every):
        kind = kinds[index % len(kinds)]
        timed = kind in ("amnesia", "transient", "partition")
        if at + (duration if timed else 1) >= ticks:
            break
        events.append(
            FaultEvent(
                kind,
                at=at,
                fraction=fraction,
                duration=duration if timed else 0,
            )
        )
        index += 1
    return FaultPlan(events=tuple(events))


def _recovery_points(plan: FaultPlan) -> List[int]:
    """The tick at which each event's healing can begin.

    Timed faults heal once the victims answer again (``at + duration``);
    permanent crashes heal once the replacement joiner is in
    (``at + 1``, the driver's top-up tick).
    """
    points = []
    for event in plan.events:
        points.append(event.at + (event.duration if event.duration else 1))
    return points


def _soak_cell(
    seed: int,
    *,
    policy_name: str,
    ticks: int,
    fault_every: Optional[int],
    fraction: float,
    duration: int,
    n_nodes: int,
    items_per_tick: int,
    num_bitmaps: int,
    estimator: str,
    replication: int,
    count_every: int,
) -> Row:
    """One policy soaked over the full schedule.

    Every seed path deliberately excludes ``policy_name``: both policies
    see the identical ring, victims, joiner ids and traffic, so their
    rows are a paired comparison.  The per-tick trace (divergence,
    repair cost, estimates) is digested so byte-identity across runs and
    worker counts is a single string comparison.
    """
    antientropy_every = SOAK_POLICIES[policy_name]
    plan = soak_plan(ticks, fault_every, fraction, duration)
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring"))
    injector = FaultInjector(ring, plan, seed=derive_seed(seed, "faults"))
    dhs = DistributedHashSketch(
        injector,
        DHSConfig(
            num_bitmaps=num_bitmaps,
            replication=replication,
            estimator=estimator,
            hash_seed=seed,
            read_repair=replication > 0,
        ),
        seed=derive_seed(seed, "dhs"),
        policy=_RETRY,
    )
    scheduler = dhs.make_scheduler(
        MaintenanceConfig(sweep_every=4, antientropy_every=antientropy_every)
    )
    reference = dhs.local_sketch([])
    # Joiner ids are only drawn when a crash actually shrank the ring, so
    # the no-fault run never touches this stream (bit-identity).
    join_rng = rng_for(seed, "soak", "joins")
    traffic_rng = rng_for(seed, "soak", "traffic")

    trace: List[Tuple[float, ...]] = []
    divergences: List[int] = []
    underreads: List[float] = []
    degraded: List[float] = []
    confidences: List[float] = []
    repair_bytes = 0.0
    repair_writes = 0
    next_item = 0
    for now in range(1, ticks + 1):
        injector.advance_to(now)
        joins = 0
        while len(injector.node_ids()) < n_nodes:
            new_id = join_rng.randrange(injector.space.size)
            while injector.has_node(new_id):
                new_id = join_rng.randrange(injector.space.size)
            injector.inner.add_node(new_id)
            joins += 1
        batch = range(next_item, next_item + items_per_tick)
        next_item += items_per_tick
        origin = injector.random_live_node(traffic_rng)
        insert_cost = dhs.insert_bulk("events", batch, origin=origin, now=now)
        reference.add_all(batch)
        report = scheduler.tick(now)
        if report.antientropy is not None:
            repair_bytes += report.antientropy.cost.bytes
            repair_writes += report.antientropy.entries_written
        divergence = dhs.replica_divergence(now)
        divergences.append(divergence)
        estimate = 0.0
        if now % count_every == 0:
            result = dhs.count(
                "events", origin=injector.random_live_node(traffic_rng), now=now
            )
            estimate = result.estimate()
            underreads.append(max(0.0, 1.0 - estimate / reference.estimate()))
            degraded.append(1.0 if result.degraded else 0.0)
            confidences.append(min(result.confidence.values(), default=1.0))
        trace.append(
            (
                now,
                joins,
                divergence,
                report.cost.bytes,
                float(report.antientropy.entries_written)
                if report.antientropy is not None
                else 0.0,
                insert_cost.bytes,
                estimate,
            )
        )

    points = _recovery_points(plan)
    convergence: List[int] = []
    for i, start in enumerate(points):
        horizon = plan.events[i + 1].at if i + 1 < len(plan.events) else ticks + 1
        healed = next(
            (
                t
                for t in range(start, min(horizon, ticks + 1))
                if divergences[t - 1] == 0
            ),
            None,
        )
        # Never healed before the next fault (or run end): charge the
        # whole window — an honest penalty, not a silent drop.
        convergence.append((healed if healed is not None else horizon) - start)
    digest = hashlib.blake2b(repr(trace).encode(), digest_size=16).hexdigest()
    n_counts = max(1, len(underreads))
    return dict(
        policy=policy_name,
        ticks=ticks,
        faults=len(plan.events),
        mean_divergence=sum(divergences) / ticks,
        peak_divergence=max(divergences),
        final_divergence=divergences[-1],
        mean_convergence_ticks=(
            sum(convergence) / len(convergence) if convergence else 0.0
        ),
        repair_kb=repair_bytes / 1024,
        repair_writes=repair_writes,
        mean_underread_pct=100 * sum(underreads) / n_counts,
        final_underread_pct=100 * (underreads[-1] if underreads else 0.0),
        degraded_pct=100 * sum(degraded) / max(1, len(degraded)),
        min_confidence=min(confidences, default=1.0),
        trace_digest=digest,
    )


def _cells(params: Params) -> List[TrialSpec]:
    """Every policy against the identical churn schedule, then the gate."""
    for name in params["policies"]:
        if name not in SOAK_POLICIES:
            raise ConfigurationError(
                f"unknown soak policy {name!r}; expected one of {sorted(SOAK_POLICIES)}"
            )
    soak = [
        TrialSpec(fn=_soak_cell, seed=params["seed"], kwargs={"policy_name": name})
        for name in params["policies"]
    ]
    return soak + FAULTMATRIX.grid(_gate_params(params))


def _gate_params(params: Params) -> Params:
    return FAULTMATRIX.resolve({**params["gate"], "seed": params["seed"]})


def _reduce(results: List[Any], params: Params) -> Tuple[List[Row], List[Row]]:
    """The soak rows, and the gate's fault-matrix rows."""
    split = len(params["policies"])
    return results[:split], FAULTMATRIX.fold(results[split:], _gate_params(params))


_TABLE = table(
    "soak",
    "Continuous-churn soak: divergence, convergence and repair cost",
    [
        ("policy", "{policy}"),
        ("ticks", "{ticks}"),
        ("faults", "{faults}"),
        ("div mean", "{mean_divergence:.1f}"),
        ("div peak", "{peak_divergence}"),
        ("div end", "{final_divergence}"),
        ("conv ticks", "{mean_convergence_ticks:.1f}"),
        ("repair kB", "{repair_kb:.1f}"),
        ("writes", "{repair_writes}"),
        ("under %", "{mean_underread_pct:.1f}"),
        ("end under %", "{final_underread_pct:.1f}"),
        ("degr %", "{degraded_pct:.0f}"),
        ("min conf", "{min_confidence:.3f}"),
    ],
)


def _render(rows: Tuple[List[Row], List[Row]], params: Params) -> Dict[str, str]:
    """The soak table with its bandwidth line, and the gate's lines."""
    soak, gate = rows
    by = {row["policy"]: row for row in soak}
    texts = _TABLE(soak, params)
    if "antientropy" in by:
        ae = by["antientropy"]
        rounds = max(1, ae["ticks"])  # antientropy_every=1: one round per tick
        texts["soak"] += (
            f"\nanti-entropy repair bandwidth: {ae['repair_kb']:.1f} kB over "
            f"{rounds} rounds ({1024 * ae['repair_kb'] / rounds:.0f} B/round, "
            f"{ae['repair_writes']} entries rewritten)"
        )
    cells = {(row["fault"], row["intensity"], row["policy"]): row for row in gate}
    gate_params = _gate_params(params)
    lines: List[str] = []
    for fault in gate_params["fault_kinds"]:
        for intensity in gate_params["intensities"]:
            rr = cells[(fault, intensity, "retry+readrepair")]
            ae = cells[(fault, intensity, "retry+repair")]
            lines.append(
                f"{fault:10s} p={intensity:.2f}  "
                f"readrepair under-read {rr['underread_pct']:5.1f}%  ->  "
                f"antientropy {ae['underread_pct']:5.1f}%"
            )
    texts["soak_gate"] = "Anti-entropy under-read gate\n" + "\n".join(lines)
    return texts


#: The anti-entropy acceptance gate: fault-matrix params of the paired
#: cells where, at this deployment size, every amnesia and partition
#: cell leaves walk-invisible replicas for read-repair while
#: anti-entropy's homecoming pass heals them (see docs/ROBUSTNESS.md).
#: It runs at the soak's seed.
GATE: Dict[str, Any] = dict(
    fault_kinds=("amnesia", "partition"),
    intensities=(0.3, 0.4),
    policies=("retry+readrepair", "retry+repair"),
    replications=(2,),
    n_nodes=96,
    n_items=6_000,
    num_bitmaps=32,
    estimator="sll",
    trials=3,
    draws=3,
)

SOAK = Experiment(
    name="soak",
    description="continuous-churn soak: divergence & repair bandwidth",
    results=("soak", "soak_gate"),
    params=dict(
        seed=3,
        policies=("readrepair", "antientropy"),
        ticks=60,
        fault_every=12,
        fraction=0.15,
        duration=4,
        n_nodes=64,
        items_per_tick=50,
        num_bitmaps=32,
        estimator="sll",
        replication=2,
        count_every=2,
        gate=GATE,
    ),
    cells=_cells,
    reduce=_reduce,
    render=_render,
)
