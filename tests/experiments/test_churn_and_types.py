"""Shape tests for the churn and histogram-type drivers (tiny scale)."""

from repro.experiments.churn import format_churn
from repro.experiments.histogram_types import format_histogram_types
from repro.experiments.registry import run


class TestChurnDriver:
    def test_policies_reported(self):
        rows = run(
            "churn",
            policies=((4, 2), (4, None)),
            rounds=6,
            n_nodes=32,
            items_per_node=40,
            num_bitmaps=16,
            seed=5,
        )
        labels = [row.label for row in rows]
        assert labels == ["ttl=4, refresh every 2", "ttl=4, refresh never"]
        refreshed, decayed = rows
        assert refreshed.refresh_kb > 0
        assert decayed.refresh_kb == 0
        assert decayed.mean_error_pct >= refreshed.mean_error_pct - 10
        assert "Soft-state" in format_churn(rows)

    def test_truth_drifts_with_churn(self):
        """Sanity: mean error is finite and rounds complete."""
        rows = run(
            "churn",
            policies=((None, None),),
            rounds=4,
            n_nodes=24,
            items_per_node=30,
            num_bitmaps=16,
            seed=6,
        )
        assert rows[0].mean_error_pct < 500


class TestHistogramTypesDriver:
    def test_all_kinds_reported(self):
        rows = run(
            "histogram-types",
            kinds=("equi_width", "v_optimal"),
            n_nodes=24,
            n_micro=20,
            budget=5,
            n_items=40_000,
            num_bitmaps=16,
            n_queries=40,
            seed=5,
        )
        kinds = {row.kind for row in rows}
        assert kinds == {"equi_width", "v_optimal"}
        for row in rows:
            assert row.mean_range_error_pct >= 0
            assert row.oracle_error_pct >= 0
        assert "footnote 5" in format_histogram_types(rows)


class TestRobustnessDriver:
    def test_replication_flattens_degradation(self):
        from repro.experiments.robustness import format_robustness

        rows = run(
            "robustness",
            failure_fractions=(0.0, 0.3),
            replications=(0, 3),
            n_nodes=64,
            n_items=30_000,
            num_bitmaps=64,
            trials=1,
            draws=2,
            seed=7,
        )
        by = {(row.p_f, row.replication): row for row in rows}
        assert by[(0.3, 3)].error_pct <= by[(0.3, 0)].error_pct + 5
        assert "p_f" in format_robustness(rows)

    def test_fractions_must_ascend(self):
        import pytest

        with pytest.raises(ValueError):
            run("robustness", failure_fractions=(0.3, 0.1))
