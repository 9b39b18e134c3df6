"""Tests for workload generators: Zipf, relations, assignment, multisets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.assignment import assign_items, assign_uniform
from repro.workloads.multisets import zipf_duplicated_multiset
from repro.workloads.relations import PAPER_SIZES, make_relation, standard_relations
from repro.workloads.zipf import ZipfGenerator


class TestZipf:
    def test_samples_in_domain(self):
        generator = ZipfGenerator(100, theta=0.7)
        samples = generator.sample(10_000, seed=1)
        assert samples.min() >= 1
        assert samples.max() <= 100

    def test_deterministic(self):
        generator = ZipfGenerator(50)
        assert np.array_equal(generator.sample(100, seed=5), generator.sample(100, seed=5))

    def test_skew_orders_frequencies(self):
        generator = ZipfGenerator(100, theta=1.0)
        samples = generator.sample(50_000, seed=2)
        counts = np.bincount(samples, minlength=101)
        assert counts[1] > counts[10] > counts[100]

    def test_theta_zero_is_uniform(self):
        generator = ZipfGenerator(10, theta=0.0)
        samples = generator.sample(50_000, seed=3)
        counts = np.bincount(samples, minlength=11)[1:]
        assert counts.max() / counts.min() < 1.2

    def test_probability_sums_to_one(self):
        generator = ZipfGenerator(200, theta=0.7)
        total = sum(generator.probability(v) for v in range(1, 201))
        assert total == pytest.approx(1.0)

    def test_probability_matches_definition(self):
        generator = ZipfGenerator(10, theta=0.7)
        weights = [1 / i**0.7 for i in range(1, 11)]
        assert generator.probability(1) == pytest.approx(weights[0] / sum(weights))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfGenerator(0)
        with pytest.raises(ConfigurationError):
            ZipfGenerator(10, theta=-1)
        with pytest.raises(ConfigurationError):
            ZipfGenerator(10).sample(-1)
        with pytest.raises(ValueError):
            ZipfGenerator(10).probability(11)


class TestRelations:
    def test_make_relation(self):
        relation = make_relation("R", 1000, domain=500, seed=1)
        assert relation.size == 1000
        assert relation.domain == (1, 500)
        assert relation.values.min() >= 1
        assert relation.values.max() <= 500

    def test_item_ids_unique_across_relations(self):
        a = make_relation("A", 100)
        b = make_relation("B", 100)
        assert set(a.item_ids().tolist()).isdisjoint(b.item_ids().tolist())

    def test_item_ids_match_iter(self):
        relation = make_relation("C", 50)
        assert relation.item_ids().tolist() == [
            relation.item_id(i) for i in range(relation.size)
        ]

    def test_item_id_scalar(self):
        relation = make_relation("D", 10)
        assert relation.item_id(3) == relation.item_ids()[3]

    def test_standard_relations_scaled(self):
        relations = standard_relations(scale=1e-4)
        assert [r.name for r in relations] == ["Q", "R", "S", "T"]
        for relation, full in zip(relations, PAPER_SIZES.values()):
            assert relation.size == int(full * 1e-4)

    def test_sizes_double(self):
        relations = standard_relations(scale=1e-4)
        sizes = [r.size for r in relations]
        for a, b in zip(sizes, sizes[1:]):
            assert b == 2 * a

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_relation("X", 0)
        with pytest.raises(ConfigurationError):
            standard_relations(scale=0)
        with pytest.raises(ConfigurationError):
            standard_relations(scale=1.5)


class TestAssignment:
    def test_partition_covers_everything_once(self):
        nodes = [10, 20, 30, 40]
        assignment = assign_uniform(1000, nodes, seed=1)
        seen = np.concatenate(list(assignment.values()))
        assert sorted(seen.tolist()) == list(range(1000))

    def test_roughly_uniform(self):
        nodes = list(range(16))
        assignment = assign_uniform(16_000, nodes, seed=2)
        sizes = [len(v) for v in assignment.values()]
        assert min(sizes) > 700
        assert max(sizes) < 1300

    def test_deterministic(self):
        nodes = [1, 2, 3]
        a = assign_uniform(100, nodes, seed=3)
        b = assign_uniform(100, nodes, seed=3)
        for node in a:
            assert np.array_equal(a[node], b[node])

    def test_assign_items_maps_values(self):
        items = ["a", "b", "c", "d", "e"]
        assignment = assign_items(items, [1, 2], seed=1)
        flat = [item for chunk in assignment.values() for item in chunk]
        assert sorted(flat) == sorted(items)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            assign_uniform(10, [])
        with pytest.raises(ConfigurationError):
            assign_uniform(-1, [1])


class TestMultisets:
    def test_zipf_duplicated_distinct_exact(self):
        multiset = zipf_duplicated_multiset(200, total=1000, seed=3)
        assert len(multiset) == 1000
        assert len(set(multiset)) == 200

    def test_zipf_duplicated_skew(self):
        from collections import Counter

        counts = Counter(zipf_duplicated_multiset(100, total=10_000, theta=1.2, seed=4))
        most_common = counts.most_common(1)[0][1]
        assert most_common > 10_000 / 100  # popular item well above average

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_duplicated_multiset(10, total=5)
