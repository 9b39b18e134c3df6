"""Tests for set-expression estimates (union/intersection)."""

import pytest

from repro.errors import IncompatibleSketchError
from repro.hashing.family import MixerHash
from repro.sketches import PCSASketch, SuperLogLogSketch
from repro.sketches.merge import union_all
from repro.sketches.setops import estimate_intersection


def make_pair(cls=SuperLogLogSketch, m=1024, seed=2, a_range=(0, 30_000), b_range=(20_000, 50_000)):
    a = cls(m=m, hash_family=MixerHash(seed=seed))
    b = cls(m=m, hash_family=MixerHash(seed=seed))
    a.add_all(range(*a_range))
    b.add_all(range(*b_range))
    return a, b


class TestIntersection:
    def test_overlapping_sets(self):
        a, b = make_pair()
        truth = 10_000  # [20k, 30k)
        estimate = estimate_intersection(a, b)
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_disjoint_sets_near_zero(self):
        a, b = make_pair(a_range=(0, 20_000), b_range=(50_000, 70_000))
        estimate = estimate_intersection(a, b)
        assert estimate < 5_000  # within noise of zero

    def test_identical_sets(self):
        a, b = make_pair(a_range=(0, 25_000), b_range=(0, 25_000))
        assert estimate_intersection(a, b) == pytest.approx(25_000, rel=0.2)

    def test_clamped_nonnegative(self):
        a, b = make_pair(m=16, a_range=(0, 100), b_range=(1_000, 1_100))
        assert estimate_intersection(a, b) >= 0.0

    def test_incompatible_rejected(self):
        a = SuperLogLogSketch(m=16)
        b = SuperLogLogSketch(m=32)
        with pytest.raises(IncompatibleSketchError):
            estimate_intersection(a, b)

    def test_works_for_pcsa_too(self):
        a, b = make_pair(cls=PCSASketch)
        assert estimate_intersection(a, b) == pytest.approx(10_000, rel=0.6)


class TestDHSSetOps:
    def test_union_and_intersection_over_dhs(self):
        from repro.core.config import DHSConfig
        from repro.core.dhs import DistributedHashSketch
        from repro.overlay.chord import ChordRing

        ring = ChordRing.build(64, bits=32, seed=8)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=16, num_bitmaps=16, lim=70), seed=5
        )
        node_ids = list(ring.node_ids())
        for i in range(3_000):
            dhs.insert("A", i, origin=node_ids[i % 64])
        for i in range(2_000, 5_000):
            dhs.insert("B", i, origin=node_ids[i % 64])
        sketches = dhs.count_many(["A", "B"]).sketches
        union = union_all([sketches["A"], sketches["B"]]).estimate()
        intersection = estimate_intersection(sketches["A"], sketches["B"])
        assert union == pytest.approx(5_000, rel=0.5)
        assert intersection < union
