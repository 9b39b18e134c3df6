"""Tests for plan representation, DP optimizer, and the engine."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histograms.buckets import BucketSpec
from repro.query.catalog import Catalog
from repro.query.engine import execute_plan
from repro.query.join import estimate_join_size
from repro.query.optimizer import optimize
from repro.query.plans import BaseRel, JoinNode, Plan, left_deep_plan, leaves
from repro.workloads.relations import make_relation

SPEC = BucketSpec.equi_width(1, 1000, 20)


def left_deep_cost(catalog, order):
    """Estimated shipping cost of the left-deep plan over ``order``.

    The optimizer's cost model, walked by hand: every join ships both of
    its inputs, each sized from the catalog's histograms.
    """

    def shipped(names):
        rows = estimate_join_size([catalog.entry(name).histogram for name in names])
        return rows * sum(catalog.entry(name).tuple_bytes for name in names)

    return sum(
        shipped(order[:i]) + shipped(order[i:i + 1]) for i in range(1, len(order))
    )


@pytest.fixture(scope="module")
def workload():
    relations = {
        name: make_relation(name, size, domain=1000, theta=0.7, seed=i)
        for i, (name, size) in enumerate(
            [("Q", 3000), ("R", 6000), ("S", 12000), ("T", 24000)]
        )
    }
    catalog = Catalog.exact(list(relations.values()), SPEC)
    return relations, catalog


class TestPlans:
    def test_left_deep_shape(self):
        plan = left_deep_plan(["A", "B", "C"])
        assert isinstance(plan, JoinNode)
        assert leaves(plan) == ["A", "B", "C"]
        assert isinstance(plan.left, JoinNode)
        assert isinstance(plan.right, BaseRel)

    def test_left_deep_single(self):
        assert left_deep_plan(["A"]) == BaseRel("A")

    def test_left_deep_empty_rejected(self):
        with pytest.raises(ValueError):
            left_deep_plan([])

    def test_describe(self):
        plan = Plan(
            root=left_deep_plan(["Q", "R"]), estimated_cost_bytes=0.0, estimated_rows=0.0
        )
        assert plan.describe() == "(Q ⋈ R)"


class TestOptimizer:
    def test_optimal_covers_all_relations(self, workload):
        _, catalog = workload
        plan = optimize(catalog, ["Q", "R", "S"])
        assert sorted(leaves(plan.root)) == ["Q", "R", "S"]

    def test_optimal_no_worse_than_any_left_deep(self, workload):
        """DP must beat (or match) every left-deep enumeration."""
        from itertools import permutations

        _, catalog = workload
        names = ["Q", "R", "S", "T"]
        best = optimize(catalog, names)
        for order in permutations(names):
            candidate = left_deep_cost(catalog, list(order))
            # Relative slack: the walk sums the same terms in another order.
            assert best.estimated_cost_bytes <= candidate * (1 + 1e-9)

    def test_single_relation_plan_free(self, workload):
        _, catalog = workload
        plan = optimize(catalog, ["Q"])
        assert plan.estimated_cost_bytes == 0.0
        assert plan.root == BaseRel("Q")

    def test_two_relations_cost_is_input_shipping(self, workload):
        _, catalog = workload
        plan = optimize(catalog, ["Q", "R"])
        expected = (
            catalog.entry("Q").bytes + catalog.entry("R").bytes
        )
        assert plan.estimated_cost_bytes == pytest.approx(expected)

    def test_validation(self, workload):
        _, catalog = workload
        with pytest.raises(QueryError):
            optimize(catalog, [])
        with pytest.raises(QueryError):
            optimize(catalog, ["Q", "Q"])
        with pytest.raises(QueryError):
            optimize(catalog, ["Q", "NOPE"])


class TestEngine:
    def test_execution_rows_match_true_join(self, workload):
        relations, _ = workload
        from repro.query.join import true_join_size

        result = execute_plan(left_deep_plan(["Q", "R"]), relations)
        truth = true_join_size(
            [relations["Q"].values, relations["R"].values], domain=1000
        )
        assert result.rows == truth

    def test_rows_independent_of_join_order(self, workload):
        relations, _ = workload
        a = execute_plan(left_deep_plan(["Q", "R", "S"]), relations)
        b = execute_plan(left_deep_plan(["S", "Q", "R"]), relations)
        assert a.rows == b.rows

    def test_shipping_depends_on_order(self, workload):
        relations, _ = workload
        good = execute_plan(left_deep_plan(["Q", "R", "T"]), relations)
        bad = execute_plan(left_deep_plan(["T", "R", "Q"]), relations)
        assert good.shipped_bytes != bad.shipped_bytes

    def test_base_relation_ships_nothing(self, workload):
        relations, _ = workload
        result = execute_plan(BaseRel("Q"), relations)
        assert result.shipped_bytes == 0.0
        assert result.rows == relations["Q"].size

    def test_per_join_breakdown_sums(self, workload):
        relations, _ = workload
        result = execute_plan(left_deep_plan(["Q", "R", "S"]), relations)
        assert sum(result.per_join_shipped) == pytest.approx(result.shipped_bytes)

    def test_unknown_relation_rejected(self, workload):
        relations, _ = workload
        with pytest.raises(QueryError):
            execute_plan(BaseRel("NOPE"), relations)


class TestOptimizerBeatsNaive:
    def test_histogram_plan_beats_worst_order_in_reality(self, workload):
        """The paper's selling point: the optimizer's choice (made from
        histograms only) transfers fewer *actual* bytes than the naive
        largest-first order."""
        relations, catalog = workload
        names = ["Q", "R", "S", "T"]
        chosen = optimize(catalog, names)
        actual_chosen = execute_plan(chosen.root, relations)
        naive = left_deep_plan(["T", "S", "R", "Q"])  # largest first
        actual_naive = execute_plan(naive, relations)
        assert actual_chosen.shipped_bytes < actual_naive.shipped_bytes


class TestCatalog:
    def test_exact_catalog_entries(self, workload):
        relations, catalog = workload
        entry = catalog.entry("Q")
        assert entry.cardinality == relations["Q"].size
        assert entry.bytes == relations["Q"].size * 1024

    def test_contains(self, workload):
        _, catalog = workload
        assert "Q" in catalog
        assert "X" not in catalog

    def test_unknown_entry_raises(self, workload):
        _, catalog = workload
        with pytest.raises(QueryError):
            catalog.entry("X")
