"""Tests for the linear counting extension."""

import math

import pytest

from repro.errors import ConfigurationError, EstimationError, IncompatibleSketchError
from repro.hashing.family import MixerHash
from repro.sketches.linear_counting import LinearCounter, linear_counting_estimate


def set_bits(counter):
    """1-bits in the counter's bitmap, read from its serialized bytes."""
    return int.from_bytes(counter.to_bytes(), "little").bit_count()


class TestFormula:
    def test_empty_bitmap(self):
        assert linear_counting_estimate(100, 100) == 0.0

    def test_saturated_bitmap(self):
        assert linear_counting_estimate(100, 0) == math.inf

    def test_half_full(self):
        assert linear_counting_estimate(1000, 500) == pytest.approx(1000 * math.log(2))

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            linear_counting_estimate(0, 0)
        with pytest.raises(EstimationError):
            linear_counting_estimate(10, 11)


class TestCounter:
    def test_small_cardinality_accuracy(self):
        counter = LinearCounter(size=1 << 14, hash_family=MixerHash(seed=1))
        counter.add_all(range(500))
        assert counter.estimate() == pytest.approx(500, rel=0.1)

    def test_duplicate_insensitive(self):
        counter = LinearCounter(size=4096)
        for _ in range(10):
            counter.add_all(range(100))
        assert counter.estimate() == pytest.approx(100, rel=0.2)

    def test_set_bits_tracking(self):
        counter = LinearCounter(size=1 << 12)
        assert set_bits(counter) == 0
        counter.add("a")
        assert set_bits(counter) == 1
        counter.add("a")
        assert set_bits(counter) == 1

    def test_is_empty(self):
        counter = LinearCounter(size=64)
        assert counter.is_empty()
        counter.add(1)
        assert not counter.is_empty()

    def test_merge_union_semantics(self):
        a = LinearCounter(size=1 << 13, hash_family=MixerHash(seed=2))
        b = LinearCounter(size=1 << 13, hash_family=MixerHash(seed=2))
        a.add_all(range(0, 300))
        b.add_all(range(200, 500))
        a.merge(b)
        assert a.estimate() == pytest.approx(500, rel=0.15)

    def test_merge_rejects_mismatched(self):
        with pytest.raises(IncompatibleSketchError):
            LinearCounter(size=64).merge(LinearCounter(size=128))

    def test_copy_independent(self):
        a = LinearCounter(size=256)
        a.add_all(range(10))
        b = a.copy()
        b.add_all(range(10, 200))
        assert set_bits(a) < set_bits(b)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            LinearCounter(size=0)

    def test_beats_loglog_family_at_tiny_n(self):
        """The reason it exists: better small-range behaviour."""
        from repro.sketches import SuperLogLogSketch

        errors_lc, errors_sll = [], []
        for seed in range(5):
            lc = LinearCounter(size=1 << 12, hash_family=MixerHash(seed=seed))
            sll = SuperLogLogSketch(m=64, hash_family=MixerHash(seed=seed))
            items = range(40)
            lc.add_all(items)
            sll.add_all(items)
            errors_lc.append(abs(lc.estimate() - 40) / 40)
            errors_sll.append(abs(sll.estimate() - 40) / 40)
        assert sum(errors_lc) <= sum(errors_sll)


class TestSerialization:
    def test_round_trip(self):
        counter = LinearCounter(size=1 << 10, hash_family=MixerHash(seed=3))
        counter.add_all(range(200))
        rebuilt = LinearCounter.from_bytes(
            counter.to_bytes(), size=1 << 10, hash_family=MixerHash(seed=3)
        )
        assert set_bits(rebuilt) == set_bits(counter)
        assert rebuilt.estimate() == counter.estimate()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            LinearCounter.from_bytes(b"\x00", size=1 << 10)
