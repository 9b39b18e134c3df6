"""Bench: continuous-churn soak and the anti-entropy acceptance gate.

The soak run (``soak/*`` trial labels) drives a sustained insert+count
workload through periodic amnesia/partition/crash/transient faults and
archives the divergence / convergence / repair-bandwidth trajectory of
the two maintenance policies.  The assertions pin the tentpole's
acceptance criteria:

* anti-entropy keeps replica divergence bounded (and ends converged)
  where read-repair alone does not;
* its repair traffic is fully charged through the ``SizeModel`` and is
  reported per reconciliation round;
* on the paired fault-matrix cells, the ``retry+repair`` column (which
  adds anti-entropy rounds to ``retry+readrepair``) shows *strictly
  lower under-read* than ``retry+readrepair`` on every amnesia and
  partition cell.
"""

from conftest import run_once

from repro.experiments.faultmatrix import run_faultmatrix
from repro.experiments.soak import format_soak, run_soak

#: The paired gate cells: at this deployment size every amnesia and
#: partition cell leaves walk-invisible replicas for read-repair while
#: anti-entropy's homecoming pass heals them (see docs/ROBUSTNESS.md).
GATE = dict(
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


def test_bench_soak(benchmark, report_writer):
    rows = run_once(benchmark, run_soak, seed=3)
    by = {row.policy: row for row in rows}
    ae, rr = by["antientropy"], by["readrepair"]
    rounds = max(1, ae.ticks)  # antientropy_every=1: one round per tick
    report = format_soak(rows) + (
        f"\nanti-entropy repair bandwidth: {ae.repair_kb:.1f} kB over "
        f"{rounds} rounds ({1024 * ae.repair_kb / rounds:.0f} B/round, "
        f"{ae.repair_writes} entries rewritten)"
    )
    report_writer("soak", report)

    # (a) Proactive reconciliation keeps the replica chains converged:
    # the run ends at divergence 0 and every fault heals within its
    # window, while read-repair alone leaves standing divergence.
    assert ae.final_divergence == 0
    assert ae.mean_divergence < rr.mean_divergence
    assert ae.mean_convergence_ticks < rr.mean_convergence_ticks
    # (b) The healing is not free — and every byte of it is visible:
    # SizeModel-charged digest + summary traffic, reported per round.
    assert ae.repair_kb > 0
    assert ae.repair_writes > 0
    assert rr.repair_kb == 0
    # (c) Counts under churn under-read less with anti-entropy running.
    assert ae.mean_underread_pct < rr.mean_underread_pct


def test_bench_soak_gate_antientropy_beats_readrepair(benchmark, report_writer):
    rows = run_once(benchmark, run_faultmatrix, seed=3, **GATE)
    by = {
        (row.fault, row.intensity, row.policy): row
        for row in rows
    }
    lines = []
    for fault in GATE["fault_kinds"]:
        for intensity in GATE["intensities"]:
            rr = by[(fault, intensity, "retry+readrepair")]
            ae = by[(fault, intensity, "retry+repair")]
            lines.append(
                f"{fault:10s} p={intensity:.2f}  "
                f"readrepair under-read {rr.underread_pct:5.1f}%  ->  "
                f"antientropy {ae.underread_pct:5.1f}%"
            )
            # The acceptance gate: strictly lower under-read on every
            # amnesia and partition cell, from actual repair work.
            assert ae.underread_pct < rr.underread_pct
            assert ae.repair_writes > rr.repair_writes
    report_writer("soak_gate", "Anti-entropy under-read gate\n" + "\n".join(lines))
