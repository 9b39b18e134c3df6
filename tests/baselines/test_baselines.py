"""Tests for the four related-work baseline families."""

import pytest

from repro.baselines.base import distinct_count
from repro.baselines.convergecast import ConvergecastAggregator
from repro.baselines.gossip import PushSumGossip
from repro.baselines.sampling import SamplingEstimator
from repro.baselines.single_node import SingleNodeCounter
from repro.core.config import DHSConfig
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing
from repro.sim.seeds import rng_for
from repro.workloads.assignment import assign_items


def total_count(scenario):
    """Ground-truth number of item occurrences (duplicates included)."""
    return sum(len(items) for items in scenario.values())


@pytest.fixture(scope="module")
def ring():
    return ChordRing.build(64, bits=32, seed=4)


@pytest.fixture(scope="module")
def scenario(ring):
    """800 distinct items, each held by 3 different nodes (duplicates)."""
    items = [item for item in range(800) for _ in range(3)]
    rng_for(1, "replicated").shuffle(items)
    return assign_items(items, list(ring.node_ids()), seed=2)


class TestScenarioHelpers:
    def test_counts(self, scenario):
        assert distinct_count(scenario) == 800
        assert total_count(scenario) == 2400


class TestSingleNode:
    def test_exact_distinct_count(self, ring, scenario):
        counter = SingleNodeCounter(ring, "docs", distinct=True)
        counter.populate(scenario)
        result = counter.query(origin=list(ring.node_ids())[5])
        assert result.estimate == 800
        assert result.duplicate_insensitive

    def test_occurrence_mode_counts_duplicates(self, ring, scenario):
        counter = SingleNodeCounter(ring, "occurrences", distinct=False)
        counter.populate(scenario)
        assert counter.query().estimate == 2400

    def test_hotspot_load(self, ring, scenario):
        """The family's flaw: one node absorbs every update."""
        ring.load.reset()
        counter = SingleNodeCounter(ring, "hotspot-check", distinct=True)
        counter.populate(scenario)
        hot = max(ring.load.counts().values())
        assert hot >= total_count(scenario)  # every update landed there
        assert ring.load.imbalance(ring.node_ids()) > 5

    def test_distinct_mode_stores_whole_set(self, ring, scenario):
        counter = SingleNodeCounter(ring, "storage-check", distinct=True)
        counter.populate(scenario)
        key = ("counter", counter.counter_id)
        (slot,) = [
            ring.node(n).store[key] for n in ring.node_ids() if key in ring.node(n).store
        ]
        assert len(slot["set"]) == 800

    def test_empty_counter_reads_zero(self, ring):
        counter = SingleNodeCounter(ring, "never-touched")
        assert counter.query().estimate == 0.0


class TestGossip:
    def test_converges_to_sum(self, ring, scenario):
        gossip = PushSumGossip(ring, seed=3)
        result, trace = gossip.run(scenario, epsilon=0.01)
        truth = total_count(scenario)  # duplicate-sensitive by nature
        assert result.estimate == pytest.approx(truth, rel=0.02)
        assert trace.deviations[-1] <= 0.01

    def test_needs_many_rounds(self, ring, scenario):
        """Multi-round behaviour: well above one round-trip."""
        result, _ = PushSumGossip(ring, seed=3).run(scenario, epsilon=0.01)
        assert result.rounds >= 5

    def test_deviation_decreases(self, ring, scenario):
        _, trace = PushSumGossip(ring, seed=3).run(scenario, epsilon=0.001)
        assert trace.deviations[-1] < trace.deviations[0]

    def test_messages_scale_with_nodes_and_rounds(self, ring, scenario):
        result, _ = PushSumGossip(ring, seed=3).run(scenario, epsilon=0.01)
        assert result.cost.messages == result.rounds * ring.size

    def test_duplicate_sensitivity_flag(self, ring, scenario):
        result, _ = PushSumGossip(ring, seed=3).run(scenario)
        assert not result.duplicate_insensitive

    def test_epsilon_validated(self, ring, scenario):
        with pytest.raises(ConfigurationError):
            PushSumGossip(ring).run(scenario, epsilon=0.0)


class TestConvergecast:
    def test_sketch_variant_estimates_distinct(self, ring, scenario):
        aggregator = ConvergecastAggregator(
            ring, use_sketches=True, sketch_config=DHSConfig(num_bitmaps=128)
        )
        result = aggregator.query(scenario)
        assert result.duplicate_insensitive
        assert result.estimate == pytest.approx(800, rel=0.4)

    def test_raw_variant_double_counts(self, ring, scenario):
        aggregator = ConvergecastAggregator(ring, use_sketches=False)
        result = aggregator.query(scenario)
        assert result.estimate == 2400  # occurrences, not distinct
        assert not result.duplicate_insensitive

    def test_touches_every_node(self, ring, scenario):
        result = ConvergecastAggregator(ring, use_sketches=False).query(scenario)
        # one broadcast + one convergecast message per tree edge
        assert result.cost.messages == 2 * (ring.size - 1)

    def test_sketches_cost_more_bandwidth_than_counts(self, ring, scenario):
        raw = ConvergecastAggregator(ring, use_sketches=False).query(scenario)
        sketched = ConvergecastAggregator(
            ring, use_sketches=True, sketch_config=DHSConfig(num_bitmaps=128)
        ).query(scenario)
        assert sketched.cost.bytes > raw.cost.bytes

    def test_root_choice_does_not_change_raw_estimate(self, ring, scenario):
        aggregator = ConvergecastAggregator(ring, use_sketches=False)
        ids = list(ring.node_ids())
        assert (
            aggregator.query(scenario, root=ids[0]).estimate
            == aggregator.query(scenario, root=ids[7]).estimate
        )


class TestSampling:
    def test_full_sample_is_exact_total(self, ring, scenario):
        estimator = SamplingEstimator(ring, seed=5)
        result = estimator.query(scenario, sample_size=ring.size, local_dedup=False)
        assert result.estimate == pytest.approx(total_count(scenario))

    def test_small_sample_noisy(self, ring, scenario):
        """Accuracy improves with sample size (on average)."""
        truth = total_count(scenario)

        def mean_error(size):
            errors = []
            for seed in range(12):
                result = SamplingEstimator(ring, seed=seed).query(
                    scenario, sample_size=size, local_dedup=False
                )
                errors.append(abs(result.estimate - truth) / truth)
            return sum(errors) / len(errors)

        assert mean_error(48) <= mean_error(4) + 0.02

    def test_cost_scales_with_sample(self, ring, scenario):
        small = SamplingEstimator(ring, seed=1).query(scenario, sample_size=4)
        large = SamplingEstimator(ring, seed=1).query(scenario, sample_size=32)
        assert large.cost.hops > small.cost.hops

    def test_cannot_see_cross_node_duplicates(self, ring, scenario):
        """Even with local dedup the estimate tracks occurrences."""
        result = SamplingEstimator(ring, seed=2).query(
            scenario, sample_size=ring.size, local_dedup=True
        )
        assert result.estimate > 1.5 * distinct_count(scenario)

    def test_sample_size_validated(self, ring, scenario):
        with pytest.raises(ConfigurationError):
            SamplingEstimator(ring).query(scenario, sample_size=0)
        with pytest.raises(ConfigurationError):
            SamplingEstimator(ring).query(scenario, sample_size=ring.size + 1)


class TestPartitionedCounter:
    def test_exact_distinct_count(self, ring, scenario):
        from repro.baselines.single_node import PartitionedCounter

        counter = PartitionedCounter(ring, "p-docs", partitions=8)
        counter.populate(scenario)
        result = counter.query(origin=list(ring.node_ids())[3])
        assert result.estimate == 800
        assert result.duplicate_insensitive

    def test_query_cost_scales_with_partitions(self, ring, scenario):
        from repro.baselines.single_node import PartitionedCounter

        small = PartitionedCounter(ring, "p2", partitions=2)
        large = PartitionedCounter(ring, "p16", partitions=16)
        small.populate(scenario)
        large.populate(scenario)
        origin = list(ring.node_ids())[0]
        assert large.query(origin=origin).cost.lookups == 16
        assert small.query(origin=origin).cost.lookups == 2
        assert (
            large.query(origin=origin).cost.hops
            > small.query(origin=origin).cost.hops
        )

    def test_partitions_dilute_the_hotspot(self, ring, scenario):
        """More partitions -> lower per-node update load; the paper's
        'merely mitigates' observation."""
        from repro.baselines.single_node import PartitionedCounter

        ring.load.reset()
        single = PartitionedCounter(ring, "hot1", partitions=1)
        single.populate(scenario)
        single_max = max(ring.load.counts().values())

        ring.load.reset()
        spread = PartitionedCounter(ring, "hot8", partitions=8)
        spread.populate(scenario)
        spread_max = max(ring.load.counts().values())
        assert spread_max < single_max

    def test_single_partition_matches_single_node_semantics(self, ring, scenario):
        from repro.baselines.single_node import PartitionedCounter

        counter = PartitionedCounter(ring, "p-one", partitions=1)
        counter.populate(scenario)
        assert counter.query().estimate == 800

    def test_partitions_validated(self, ring):
        from repro.baselines.single_node import PartitionedCounter

        with pytest.raises(ValueError):
            PartitionedCounter(ring, "bad", partitions=0)
