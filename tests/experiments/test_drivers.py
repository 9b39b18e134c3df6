"""Smoke/shape tests for the experiment drivers (tiny configurations).

The benchmarks run the paper-scale versions; these tests only assert
that each driver is well-formed, deterministic, and directionally sane
at miniature scale so the suite stays fast.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import CountSample, env_scale
from repro.experiments.registry import run
from repro.experiments.report import format_kv, format_table
from tests.experiments.rendering import render


class TestReport:
    def test_format_table(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["x", 10_000.0]])
        assert "T" in text
        assert "bb" in text
        assert "10,000" in text

    def test_format_kv(self):
        text = format_kv("K", [("key", 1), ("longer key", 2.0)])
        assert "longer key" in text

    def test_format_empty_rows(self):
        assert "hdr" in format_table("t", ["hdr"], [])


class TestEnvScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("DHS_SCALE", raising=False)
        assert env_scale(0.5) == 0.5

    def test_override(self, monkeypatch):
        monkeypatch.setenv("DHS_SCALE", "0.25")
        assert env_scale(0.5) == 0.25

    def test_scientific_notation(self, monkeypatch):
        monkeypatch.setenv("DHS_SCALE", "1e-2")
        assert env_scale() == 0.01

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "0", "-1"])
    def test_rejects_anything_but_a_finite_positive_number(self, monkeypatch, raw):
        monkeypatch.setenv("DHS_SCALE", raw)
        with pytest.raises(ConfigurationError, match=f"DHS_SCALE.*> 0.*{raw!r}"):
            env_scale()


class TestCountSample:
    def test_aggregates(self):
        sample = CountSample(
            estimates=[110.0, 90.0],
            truths=[100.0, 100.0],
            hops=[10, 20],
            nodes_visited=[3, 5],
            bytes=[1024.0, 2048.0],
            lookups=[4, 6],
        )
        assert sample.mean_hops() == 15
        assert sample.mean_nodes() == 4
        assert sample.mean_bytes() == 1536.0
        assert sample.mean_abs_rel_error() == pytest.approx(0.1)
        assert sample.mean_rel_bias() == pytest.approx(0.0)


@pytest.fixture(scope="module")
def table2_rows():
    return run("table2", n_nodes=32, ms=(16, 64), scale=5e-4, trials=1, seed=3)


class TestTable2:
    def test_row_count(self, table2_rows):
        assert len(table2_rows) == 4  # 2 m-values x 2 estimators

    def test_rows_well_formed(self, table2_rows):
        for row in table2_rows:
            assert row["estimator"] in ("sll", "pcsa")
            assert row["hops"] > 0
            assert row["bw_kbytes"] > 0
            assert row["error_pct"] >= 0

    def test_bandwidth_grows_with_m(self, table2_rows):
        by = {(r["m"], r["estimator"]): r for r in table2_rows}
        assert by[(64, "sll")]["bw_kbytes"] > by[(16, "sll")]["bw_kbytes"]

    def test_format(self, table2_rows):
        text = render("table2", table2_rows, scale=5e-4)["table2_counting"]
        assert "Table 2" in text
        assert "64" in text

    def test_deterministic(self, table2_rows):
        again = run("table2", n_nodes=32, ms=(16, 64), scale=5e-4, trials=1, seed=3)
        assert [(r["m"], r["estimator"], r["hops"]) for r in again] == [
            (r["m"], r["estimator"], r["hops"]) for r in table2_rows
        ]


class TestTable3:
    def test_shape_and_format(self):
        rows, _ = run(
            "table3", n_nodes=32, ms=(16,), n_buckets=5, scale=2e-4, trials=1, seed=3,
            bucket_counts=(),
        )
        assert len(rows) == 2
        text = render("table3", (rows, []), scale=2e-4, bucket_counts=())["table3_histograms"]
        assert "Table 3" in text
        for row in rows:
            assert row["hops"] > 0
            assert row["bw_kbytes"] > 0


class TestScalability:
    def test_hops_grow_slowly(self):
        rows = run(
            "scalability",
            node_counts=(16, 256), num_bitmaps=16, scale=2e-4, trials=2, seed=3
        )
        by = {(r["n_nodes"], r["estimator"]): r for r in rows}
        assert by[(256, "sll")]["hops"] > by[(16, "sll")]["hops"]
        # 16x more nodes must NOT mean 16x more hops (logarithmic cost).
        assert by[(256, "sll")]["hops"] < 6 * by[(16, "sll")]["hops"]
        assert "Scalability" in render("scalability", rows)["scalability"]

    def test_rows_carry_error_and_load_balance(self):
        rows = run(
            "scalability",
            node_counts=(32,), num_bitmaps=16, scale=2e-4, trials=2, seed=3
        )
        for row in rows:
            assert row["error"] >= 0.0
            assert row["load_max_mean"] >= 1.0
            assert 0.0 <= row["load_gini"] < 1.0

    def test_log_fit_anchored_to_small_cells(self):
        import math

        from repro.experiments.scalability import fit_log2_coefficient

        rows = [
            dict(n_nodes=1024, estimator="sll", hops=50.0, nodes_visited=1, lookups=1),
            dict(n_nodes=100_000, estimator="sll", hops=999.0, nodes_visited=1, lookups=1),
        ]
        # Only the N<=1e4 cell shapes the fit: c = hops / log2(N).
        assert fit_log2_coefficient(rows) == pytest.approx(50.0 / 10.0)
        assert fit_log2_coefficient([rows[1]]) == 0.0
        predicted = fit_log2_coefficient(rows) * math.log2(100_000)
        assert predicted < 999.0

    def test_sweep_node_counts_ladder(self):
        from repro.experiments.scalability import sweep_node_counts

        assert sweep_node_counts(1_000_000) == (1000, 10_000, 100_000, 1_000_000)
        assert sweep_node_counts(50_000) == (1000, 10_000, 50_000)
        assert sweep_node_counts(500) == (500,)
        with pytest.raises(ConfigurationError):
            sweep_node_counts(0)


class TestMultitenant:
    def test_small_run_balances_and_counts(self):
        rows = run(
            "multitenant",
            node_counts=(32,),
            n_tenants=64,
            total_ops=1024,
            num_bitmaps=16,
            count_tenants=2,
            trials=2,
            seed=4,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["active_tenants"] <= row["n_tenants"]
        assert row["storage_max_mean"] >= 1.0
        assert 0.0 <= row["storage_gini"] < 1.0
        assert row["hops"] > 0 and row["error"] >= 0.0
        assert row["membership_bytes_per_node"] == 8.0
        assert "Multi-tenant" in render("multitenant", rows)["multitenant"]

    def test_parallel_identity(self):
        kwargs = dict(
            node_counts=(16, 64),
            n_tenants=48,
            total_ops=512,
            num_bitmaps=16,
            count_tenants=2,
            trials=1,
            seed=9,
        )
        assert run("multitenant", jobs=1, **kwargs) == run(
            "multitenant", jobs=3, **kwargs
        )


class TestAccuracy:
    def test_sweep_shape(self):
        rows = run(
            "accuracy", ms=(16, 64), n_nodes=32, scale=1e-3, trials=1, hash_seeds=(0,), seed=3
        )
        assert len(rows) == 4
        assert "Accuracy" in render("accuracy", rows)["accuracy_vs_m"]


class TestHistogramAccuracy:
    def test_small_run(self):
        rows = run(
            "histogram-accuracy", ms=(16,), n_nodes=16, n_buckets=4, n_items=30_000, trials=1, seed=3
        )
        assert len(rows) == 2
        for row in rows:
            assert row["cell_error_pct"] >= 0
            assert row["sketch_sigma_pct"] > 0
        assert "Histogram" in render("histogram-accuracy", rows)["histogram_accuracy"]


class TestInsertion:
    def test_report(self):
        report = run(
            "insertion", n_nodes=64, num_bitmaps=16, n_buckets=5, scale=2e-4, probe_inserts=100, seed=3
        )
        assert 1 < report["mean_hops_per_insert"] < 12
        assert report["mean_bytes_per_insert"] == pytest.approx(
            8 * report["mean_hops_per_insert"]
        )
        assert report["mean_storage_bytes_per_node"] <= report["theoretical_worst_case_bytes"]
        assert "Insertion" in render("insertion", report)["insertion_costs"]


class TestQueryOpt:
    def test_report_shape(self):
        report = run(
            "query-opt", n_nodes=32, num_bitmaps=32, n_buckets=5, scale=2e-4, seed=3
        )
        assert report["oracle_shipped_mb"] <= report["naive_shipped_mb"] + 1e-9
        assert report["chosen_shipped_mb"] > 0
        assert report["histogram_cost_mb"] > 0
        assert "Query optimization" in render("query-opt", report)["query_opt"]


class TestBaselinesComparison:
    def test_all_methods_present(self):
        rows = run(
            "baselines", n_nodes=32, n_distinct=2000, total_items=5000, num_bitmaps=32,
            seed=3,
        )
        methods = {row["method"] for row in rows}
        assert methods == {
            "DHS (sLL)",
            "single-node counter",
            "partitioned counter (P=8)",
            "push-sum gossip",
            "sketch gossip",
            "convergecast (sketch)",
            "node sampling",
        }
        assert "DHS" in render("baselines", rows, n_distinct=2000)["baselines"]

    def test_duplicate_sensitivity_flags(self):
        rows = run(
            "baselines", n_nodes=32, n_distinct=2000, total_items=5000, num_bitmaps=32,
            seed=3,
        )
        flags = {row["method"]: row["duplicate_insensitive"] for row in rows}
        assert flags["DHS (sLL)"]
        assert flags["sketch gossip"]
        assert not flags["push-sum gossip"]
        assert not flags["node sampling"]


class TestMultiDim:
    def test_bytes_grow_hops_do_not(self):
        rows = run(
            "multidim", metric_counts=(1, 8), n_nodes=32, items_per_metric=2000,
            num_bitmaps=16, trials=2, seed=3,
        )
        one, eight = rows[0], rows[1]
        assert eight["bytes_kb"] > one["bytes_kb"]
        assert eight["hops"] < 8 * max(one["hops"], 1)
        assert "Multi-dimension" in render("multidim", rows)["multidim"]
