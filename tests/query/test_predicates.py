"""Tests for selection-predicate pushdown through the query stack."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.histograms.buckets import BucketSpec
from repro.histograms.histogram import Histogram
from repro.query.catalog import Catalog
from repro.query.engine import execute_plan
from repro.query.optimizer import apply_predicates, optimize
from repro.query.plans import BaseRel, left_deep_plan
from repro.workloads.relations import make_relation

SPEC = BucketSpec.equi_width(1, 100, 10)


class TestHistogramRestrict:
    def test_full_range_is_identity(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.restrict(1, 101).counts == histogram.counts

    def test_partial_bucket_scaled(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        restricted = histogram.restrict(1, 6)
        assert restricted.counts[0] == pytest.approx(5.0)
        assert sum(restricted.counts[1:]) == 0.0

    def test_disjoint_range_empties(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.restrict(500, 600).total == 0.0

    def test_spec_preserved(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.restrict(20, 50).spec == SPEC


@pytest.fixture(scope="module")
def workload():
    relations = {
        name: make_relation(name, size, domain=1000, theta=0.7, seed=i)
        for i, (name, size) in enumerate([("A", 4000), ("B", 8000), ("C", 16000)])
    }
    spec = BucketSpec.equi_width(1, 1000, 20)
    return relations, Catalog.exact(list(relations.values()), spec)


class TestApplyPredicates:
    def test_restricts_named_relation_only(self, workload):
        _, catalog = workload
        derived = apply_predicates(catalog, {"A": (1, 100)})
        assert derived.entry("A").cardinality < catalog.entry("A").cardinality
        assert derived.entry("B").cardinality == catalog.entry("B").cardinality

    def test_none_is_identity(self, workload):
        _, catalog = workload
        assert apply_predicates(catalog, None) is catalog

    def test_empty_range_rejected(self, workload):
        _, catalog = workload
        with pytest.raises(QueryError):
            apply_predicates(catalog, {"A": (50, 50)})

    def test_original_catalog_untouched(self, workload):
        _, catalog = workload
        before = catalog.entry("A").cardinality
        apply_predicates(catalog, {"A": (1, 10)})
        assert catalog.entry("A").cardinality == before


class TestEngineWithPredicates:
    def test_filter_reduces_rows(self, workload):
        relations, _ = workload
        full = execute_plan(BaseRel("C"), relations)
        filtered = execute_plan(BaseRel("C"), relations, predicates={"C": (1, 50)})
        truth = int(((relations["C"].values >= 1) & (relations["C"].values < 50)).sum())
        assert filtered.rows == truth < full.rows

    def test_filter_reduces_shipping(self, workload):
        relations, _ = workload
        plan = left_deep_plan(["A", "C"])
        full = execute_plan(plan, relations)
        filtered = execute_plan(plan, relations, predicates={"C": (1, 50)})
        assert filtered.shipped_bytes < full.shipped_bytes

    def test_join_respects_filter_semantics(self, workload):
        relations, _ = workload
        result = execute_plan(
            left_deep_plan(["A", "B"]), relations, predicates={"A": (1, 100)}
        )
        a = relations["A"].values
        a_filtered = a[(a >= 1) & (a < 100)]
        from repro.query.join import true_join_size

        assert result.rows == true_join_size(
            [a_filtered, relations["B"].values], domain=1000
        )


class TestOptimizerWithPredicates:
    def test_estimates_shrink(self, workload):
        _, catalog = workload
        unfiltered = optimize(catalog, ["A", "B", "C"])
        filtered = optimize(catalog, ["A", "B", "C"], predicates={"C": (1, 30)})
        assert filtered.estimated_rows < unfiltered.estimated_rows
        assert filtered.estimated_cost_bytes < unfiltered.estimated_cost_bytes

    def test_predicate_can_change_plan_choice(self, workload):
        """Filtering the biggest relation hard makes it cheap to join
        early; the chosen tree must reflect the filtered statistics."""
        relations, catalog = workload
        predicates = {"C": (900, 1000)}  # keeps only the sparse tail of C
        plan = optimize(catalog, ["A", "B", "C"], predicates=predicates)
        executed = execute_plan(plan.root, relations, predicates=predicates)
        # Compare against every left-deep alternative under the same
        # predicate: the chosen plan must be (near-)optimal in reality.
        from itertools import permutations

        best = min(
            execute_plan(
                left_deep_plan(list(order)), relations, predicates=predicates
            ).shipped_bytes
            for order in permutations(["A", "B", "C"])
        )
        assert executed.shipped_bytes <= best * 1.01


class TestCostOfPlanWithPredicates:
    def test_predicates_shrink_plan_cost(self, workload):
        _, catalog = workload
        names = ["A", "B", "C"]
        full = optimize(catalog, names)
        filtered = optimize(catalog, names, predicates={"C": (1, 30)})
        assert filtered.estimated_cost_bytes < full.estimated_cost_bytes
