"""Tests for the fault-matrix driver (repro.experiments.faultmatrix)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.faultmatrix import _plan_for, format_faultmatrix
from repro.experiments.registry import run

SMOKE = dict(
    n_nodes=32, n_items=4_000, num_bitmaps=32,
    estimator="sll", trials=2, draws=2, seed=3,
)


@pytest.fixture(scope="module")
def rows():
    return run(
        "faultmatrix",
        fault_kinds=("drop", "lazy_crash", "amnesia"),
        intensities=(0.1, 0.3),
        policies=("none", "retry+repair"),
        replications=(0, 2),
        **SMOKE,
    )


@pytest.fixture(scope="module")
def by(rows):
    return {(r.fault, r.intensity, r.policy, r.replication): r for r in rows}


class TestAcceptance:
    def test_error_grows_with_drop_rate_without_recovery(self, by):
        # (a) At R=0 with no retries, more loss means more error.
        assert by[("drop", 0.3, "none", 0)].error_pct > by[("drop", 0.1, "none", 0)].error_pct

    def test_retry_and_repair_recover_accuracy(self, by):
        # (b) The recovery stack claws heavy-drop accuracy back towards
        # the clean baseline, paying hops instead of accuracy.
        degraded = by[("drop", 0.3, "none", 2)]
        recovered = by[("drop", 0.3, "retry+repair", 2)]
        assert recovered.error_pct < degraded.error_pct / 2
        assert recovered.hops > degraded.hops

    def test_replication_and_repair_absorb_amnesia(self, by):
        # (b) Rejoined-empty nodes: unreplicated data is simply gone,
        # replicated data survives and the repair paths rewrite it.
        lost = by[("amnesia", 0.3, "none", 0)]
        healed = by[("amnesia", 0.3, "retry+repair", 2)]
        assert healed.error_pct < lost.error_pct / 2
        assert healed.repair_writes > 0

    def test_lossy_runs_flag_themselves(self, by):
        # (c) Every drop-afflicted count is marked degraded and its
        # eq. 5 confidence falls below the clean-run 1.0.
        worst = by[("drop", 0.3, "none", 0)]
        assert worst.degraded_pct == 100.0
        assert worst.confidence < 0.5

    def test_clean_cells_stay_confident(self, by):
        # Faults that never exhaust a probe budget leave confidence at 1.
        assert by[("amnesia", 0.1, "none", 2)].confidence == 1.0


class TestAntiEntropyGate:
    """Anti-entropy's acceptance gate, at the bench configuration.

    ``retry+repair`` differs from ``retry+readrepair`` only by the
    pre-count anti-entropy rounds, so the gap is what they buy.
    """

    @pytest.fixture(scope="class")
    def gate(self):
        return {
            (r.fault, r.intensity, r.policy): r
            for r in run(
                "faultmatrix",
                fault_kinds=("amnesia", "partition"),
                intensities=(0.3, 0.4),
                policies=("retry+readrepair", "retry+repair"),
                replications=(2,),
                n_nodes=96, n_items=6_000, num_bitmaps=32,
                estimator="sll", trials=3, draws=3, seed=3,
            )
        }

    @pytest.mark.parametrize("fault", ["amnesia", "partition"])
    @pytest.mark.parametrize("intensity", [0.3, 0.4])
    def test_antientropy_strictly_lowers_underread(self, gate, fault, intensity):
        readrepair = gate[(fault, intensity, "retry+readrepair")]
        antientropy = gate[(fault, intensity, "retry+repair")]
        assert antientropy.underread_pct < readrepair.underread_pct
        assert antientropy.repair_writes > readrepair.repair_writes

    def test_underread_never_exceeds_error(self, gate):
        # Under-read is the fault-attributable slice of the error: it
        # can't exceed the total error against truth by more than the
        # sketch's own (bounded) estimation bias.
        for row in gate.values():
            assert row.underread_pct <= row.error_pct + 15.0


class TestHarness:
    def test_parallel_matches_serial(self):
        kwargs = dict(
            fault_kinds=("drop",), intensities=(0.2,),
            policies=("none", "retry"), replications=(0,),
            n_nodes=16, n_items=1_000, num_bitmaps=16,
            trials=1, draws=2, seed=5,
        )
        assert run("faultmatrix", jobs=2, **kwargs) == run("faultmatrix", jobs=1, **kwargs)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            run("faultmatrix", policies=("wishful",), **SMOKE)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            _plan_for("meteor", 0.5)

    def test_zero_intensity_is_empty_plan(self):
        assert _plan_for("drop", 0.0).is_empty
        assert _plan_for("amnesia", 0.0).is_empty

    def test_format_renders_every_row(self, rows):
        table = format_faultmatrix(rows)
        assert "fault" in table and "conf" in table
        assert table.count("\n") >= len(rows)
