"""Bench: the fault matrix (fault kind x intensity x policy x R).

Extends the paper's §3.5 robustness sweep with the richer fault model of
``repro.overlay.faults``: ambient message drops, lazy crashes and
crash-with-amnesia rejoins, crossed with the recovery stack (retry
policy, read-repair + anti-entropy, replication).  The assertions pin the
three headline behaviours the machinery exists for: error grows with
the drop rate when nothing recovers, retries + repair claw the accuracy
back, and every lossy count flags itself (degraded / confidence).
"""

from conftest import run_once

from repro.experiments.faultmatrix import format_faultmatrix, run_faultmatrix


def test_bench_faultmatrix(benchmark, report_writer):
    rows = run_once(benchmark, run_faultmatrix, seed=3)
    report_writer("fault_matrix", format_faultmatrix(rows))

    by = {
        (row.fault, row.intensity, row.policy, row.replication): row for row in rows
    }
    # (a) With no recovery, error grows with the drop rate at R=0.
    assert (
        by[("drop", 0.3, "none", 0)].error_pct
        > by[("drop", 0.1, "none", 0)].error_pct
    )
    # (b) Retries + read-repair recover accuracy under heavy drops...
    assert (
        by[("drop", 0.3, "retry+repair", 2)].error_pct
        < by[("drop", 0.3, "none", 2)].error_pct / 2
    )
    # ...and anti-entropy's homecoming restores amnesiac deployments
    # that replication alone cannot: a rejoined-empty owner masks
    # replicas that spilled past its (possibly node-free) home interval,
    # where the interval-bounded walk never looks.
    assert (
        by[("amnesia", 0.3, "retry+repair", 2)].error_pct
        < by[("amnesia", 0.3, "none", 2)].error_pct / 2
    )
    assert by[("amnesia", 0.3, "retry+repair", 2)].repair_writes > 0
    # (c) Lossy runs know they are lossy: drops always flag degraded and
    # depress confidence below the clean-run 1.0.
    assert by[("drop", 0.3, "none", 0)].degraded_pct == 100.0
    assert by[("drop", 0.3, "none", 0)].confidence < 0.5
