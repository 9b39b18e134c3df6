"""Tests for the sketch-payload gossip baseline."""

import pytest

from repro.baselines.base import distinct_count
from repro.baselines.gossip import PushSumGossip
from repro.baselines.sketch_gossip import SketchGossip
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
    items = [item for item in range(800) for _ in range(3)]
    rng_for(1, "replicated").shuffle(items)
    return assign_items(items, list(ring.node_ids()), seed=2)


@pytest.fixture(scope="module")
def result(ring, scenario):
    gossip = SketchGossip(ring, DHSConfig(num_bitmaps=128), seed=3)
    return gossip.run(scenario)


class TestConvergence:
    def test_estimates_distinct_count(self, result, scenario):
        outcome, _ = result
        truth = distinct_count(scenario)
        assert outcome.estimate == pytest.approx(truth, rel=0.35)
        # Crucially NOT the occurrence count: duplicates are free.
        assert outcome.estimate < 0.6 * total_count(scenario)

    def test_duplicate_insensitive_flag(self, result):
        outcome, _ = result
        assert outcome.duplicate_insensitive

    def test_logarithmic_rounds(self, result, ring):
        _, rounds = result
        # Push gossip disseminates in O(log N) rounds.
        assert 2 <= rounds <= 30

    def test_every_round_moves_full_sketches(self, result, ring):
        outcome, rounds = result
        assert outcome.cost.messages == rounds * ring.size
        # Sketch payloads (m registers) dwarf push-sum's 16-byte pairs.
        assert outcome.cost.bytes / outcome.cost.messages >= 128

    def test_costlier_than_pushsum_per_round(self, ring, scenario):
        sketch_result, _ = SketchGossip(ring, DHSConfig(num_bitmaps=128), seed=3).run(
            scenario
        )
        pushsum_result, _ = PushSumGossip(ring, seed=3).run(scenario, epsilon=0.05)
        sketch_per_round = sketch_result.cost.bytes / sketch_result.rounds
        pushsum_per_round = pushsum_result.cost.bytes / pushsum_result.rounds
        assert sketch_per_round > 5 * pushsum_per_round


class TestValidation:
    def test_empty_overlay_rejected(self):
        ring = ChordRing.from_ids([1], bits=8)
        ring.remove_node(1, graceful=False)
        with pytest.raises(ConfigurationError):
            SketchGossip(ring).run({})

    def test_deterministic(self, ring, scenario):
        a, _ = SketchGossip(ring, DHSConfig(num_bitmaps=64), seed=9).run(scenario)
        b, _ = SketchGossip(ring, DHSConfig(num_bitmaps=64), seed=9).run(scenario)
        assert a.estimate == b.estimate
