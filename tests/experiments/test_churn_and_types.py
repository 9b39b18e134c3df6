"""Shape tests for the churn and histogram-type drivers (tiny scale)."""

from repro.experiments.registry import run
from tests.experiments.rendering import render


class TestChurnDriver:
    def test_policies_reported(self):
        params = dict(
            policies=((4, 2), (4, None)),
            rounds=6,
            n_nodes=32,
            items_per_node=40,
            num_bitmaps=16,
            seed=5,
        )
        rows = run("churn", **params)
        labels = [row["label"] for row in rows]
        assert labels == ["ttl=4, refresh every 2", "ttl=4, refresh never"]
        refreshed, decayed = rows
        assert refreshed["refresh_kb"] > 0
        assert decayed["refresh_kb"] == 0
        assert decayed["mean_error_pct"] >= refreshed["mean_error_pct"] - 10
        assert "Soft-state" in render("churn", rows, **params)["churn_policies"]

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
        assert rows[0]["mean_error_pct"] < 500


class TestHistogramTypesDriver:
    def test_all_kinds_reported(self):
        params = dict(
            kinds=("equi_width", "v_optimal"),
            n_nodes=24,
            n_micro=20,
            budget=5,
            n_items=40_000,
            num_bitmaps=16,
            n_queries=40,
            seed=5,
        )
        rows = run("histogram-types", **params)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"equi_width", "v_optimal"}
        for row in rows:
            assert row["mean_range_error_pct"] >= 0
            assert row["oracle_error_pct"] >= 0
        texts = render("histogram-types", rows, **params)
        assert "footnote 5" in texts["histogram_types"]


class TestRobustnessDriver:
    def test_replication_flattens_degradation(self):
        params = dict(
            failure_fractions=(0.0, 0.3),
            replications=(0, 3),
            n_nodes=64,
            n_items=30_000,
            num_bitmaps=64,
            trials=1,
            draws=2,
            seed=7,
        )
        rows = run("robustness", **params)
        by = {(row["p_f"], row["replication"]): row for row in rows}
        assert by[(0.3, 3)]["error_pct"] <= by[(0.3, 0)]["error_pct"] + 5
        assert "p_f" in render("robustness", rows, **params)["failure_robustness"]

    def test_fractions_must_ascend(self):
        import pytest

        with pytest.raises(ValueError):
            run("robustness", failure_fractions=(0.3, 0.1))
