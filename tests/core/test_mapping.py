"""Tests for the bit-position to id-interval mapping."""

import pytest

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.errors import ConfigurationError
from repro.overlay.idspace import IdSpace
from repro.sim.seeds import rng_for


def make_map(bits=32, key_bits=16, m=1, shift=0):
    return BitIntervalMap(
        IdSpace(bits),
        DHSConfig(key_bits=key_bits, num_bitmaps=m, bit_shift=shift),
    )


class TestThresholds:
    def test_paper_formula(self):
        mapping = make_map(bits=32)
        assert mapping.threshold(0) == 2**31
        assert mapping.threshold(1) == 2**30
        assert mapping.threshold(-1) == 2**32

    def test_key_bits_cannot_exceed_space(self):
        with pytest.raises(ConfigurationError):
            BitIntervalMap(IdSpace(16), DHSConfig(key_bits=24))


class TestIntervals:
    def test_first_interval_is_top_half(self):
        mapping = make_map(bits=32)
        assert mapping.interval_for_index(0) == (2**31, 2**32)

    def test_intervals_halve(self):
        mapping = make_map(bits=32)
        for index in range(mapping.num_intervals - 2):
            lo1, hi1 = mapping.interval_for_index(index)
            lo2, hi2 = mapping.interval_for_index(index + 1)
            assert hi2 == lo1
            assert (hi2 - lo2) * 2 == hi1 - lo1

    def test_last_interval_absorbs_zero(self):
        mapping = make_map(bits=32, key_bits=16)
        lo, hi = mapping.interval_for_index(mapping.num_intervals - 1)
        assert lo == 0

    def test_intervals_partition_ring(self):
        mapping = make_map(bits=32, key_bits=16)
        covered = 0
        for index in range(mapping.num_intervals):
            lo, hi = mapping.interval_for_index(index)
            covered += hi - lo
        assert covered == 2**32

    def test_num_intervals(self):
        assert make_map(key_bits=16, m=1).num_intervals == 16
        assert make_map(key_bits=16, m=4).num_intervals == 14
        assert make_map(key_bits=16, m=4, shift=3).num_intervals == 11

    def test_index_bounds_checked(self):
        mapping = make_map()
        with pytest.raises(ValueError):
            mapping.interval_for_index(-1)
        with pytest.raises(ValueError):
            mapping.interval_for_index(mapping.num_intervals)


class TestPositionMapping:
    def test_round_trip_without_shift(self):
        mapping = make_map(key_bits=16, m=4)
        for position in range(mapping.config.position_bits):
            index = mapping.interval_index(position)
            assert mapping.position_for_index(index) == position

    def test_shift_moves_positions_to_larger_intervals(self):
        plain = make_map(key_bits=16, m=1, shift=0)
        shifted = make_map(key_bits=16, m=1, shift=3)
        # Position 3 with shift 3 lives in the interval of position 0.
        assert shifted.interval_for_position(3) == plain.interval_for_position(0)

    def test_shifted_positions_not_stored(self):
        mapping = make_map(shift=3)
        assert not mapping.is_stored(0)
        assert not mapping.is_stored(2)
        assert mapping.is_stored(3)
        with pytest.raises(ValueError):
            mapping.interval_index(2)


class TestRandomKeys:
    def test_keys_fall_in_interval(self):
        mapping = make_map(bits=32, key_bits=16)
        rng = rng_for(1, "keys")
        for index in range(mapping.num_intervals):
            lo, hi = mapping.interval_for_index(index)
            for _ in range(20):
                key = mapping.random_key_in_interval(index, rng)
                assert lo <= key < hi

    @pytest.mark.parametrize(
        "space_bits, config",
        [
            (64, DHSConfig()),
            (32, DHSConfig(key_bits=16, num_bitmaps=4, bit_shift=3)),
            (32, DHSConfig(key_bits=32, num_bitmaps=16)),
            (96, DHSConfig(key_bits=80, num_bitmaps=8, bit_shift=2)),
        ],
        ids=["default", "bit-shift", "key-bits-equal-space", "wider-than-64"],
    )
    def test_key_stream_is_randrange_stream(self, space_bits, config):
        """Both draws return exactly ``randrange(lo, hi)``'s keys and leave
        the RNG exactly where a twin ``random.Random`` ends up."""
        mapping = BitIntervalMap(IdSpace(space_bits), config)
        bounds = [mapping.interval_for_index(i) for i in range(mapping.num_intervals)]
        rng, twin = rng_for(5, "keys"), rng_for(5, "keys")
        for _ in range(50):
            for index, (lo, hi) in enumerate(bounds):
                assert mapping.random_key_in_interval(index, rng) == twin.randrange(lo, hi)
            assert rng.getstate() == twin.getstate()
            assert mapping.random_keys(rng) == [twin.randrange(lo, hi) for lo, hi in bounds]
            assert rng.getstate() == twin.getstate()

    def test_key_outside_the_table_raises(self):
        mapping = make_map(bits=32, key_bits=16)
        for index in (-1, mapping.num_intervals):
            with pytest.raises(ValueError):
                mapping.random_key_in_interval(index, rng_for(1, "keys"))

    def test_expected_nodes_halve(self):
        mapping = make_map(bits=32, key_bits=16)
        assert mapping.expected_nodes(0, 1024) == pytest.approx(512)
        assert mapping.expected_nodes(1, 1024) == pytest.approx(256)

    def test_load_balance_invariant(self):
        """Items hitting interval r and ids inside it shrink together:
        expected items per node is constant across intervals."""
        mapping = make_map(bits=32, key_bits=16)
        n_items, n_nodes = 2**20, 1024
        ratios = []
        for index in range(mapping.num_intervals - 1):  # last absorbs the tail
            position = mapping.position_for_index(index)
            items_here = n_items * 2.0 ** -(position + 1)
            nodes_here = mapping.expected_nodes(index, n_nodes)
            ratios.append(items_here / nodes_here)
        assert max(ratios) == pytest.approx(min(ratios))
