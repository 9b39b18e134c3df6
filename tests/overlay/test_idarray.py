"""Tests for the numpy-backed sorted membership array."""

import bisect
import random

import numpy as np
import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.idarray import SortedIdArray


class TestSequenceProtocol:
    def test_empty(self):
        ids = SortedIdArray()
        assert len(ids) == 0
        assert list(ids) == []
        assert 3 not in ids
        with pytest.raises(IndexError):
            ids[0]

    def test_init_sorts_and_boxes_python_ints(self):
        ids = SortedIdArray(ids=[5, 1, 9])
        assert ids.tolist() == [1, 5, 9]
        assert isinstance(ids[0], int) and not hasattr(ids[0], "dtype")

    def test_negative_indexing_wraps(self):
        ids = SortedIdArray(ids=[1, 5, 9])
        assert ids[-1] == 9
        assert ids[-3] == 1
        with pytest.raises(IndexError):
            ids[-4]
        with pytest.raises(IndexError):
            ids[3]

    def test_slicing_returns_python_ints(self):
        ids = SortedIdArray(ids=[1, 5, 9, 12])
        assert ids[1:3] == [5, 9]
        assert all(isinstance(v, int) for v in ids[:])

    def test_contains_non_int_is_false(self):
        ids = SortedIdArray(ids=[1, 5])
        assert "5" not in ids
        assert 5 in ids
        assert 4 not in ids

    def test_contains_accepts_any_integral(self):
        """Regression: a present id passed as a numpy integer answered
        False (``ring.has_node(np.uint64(nid))`` on a live member)."""
        top = (1 << 64) - 1
        ids = SortedIdArray(ids=[1, 5, top])
        assert np.uint64(5) in ids and np.int64(5) in ids
        assert np.uint64(top) in ids
        assert np.uint64(4) not in ids and np.int64(-1) not in ids
        assert True in ids  # an int: True == 1
        assert False not in ids
        assert 1.0 not in ids and "1" not in ids and None not in ids
        ring = ChordRing.from_ids([1, 5, top])
        assert ring.has_node(np.uint64(top)) and ring.is_alive(np.uint64(5))

    def test_random_choice_works(self):
        # random_live_node relies on Random.choice over the sequence.
        ids = SortedIdArray(ids=[2, 4, 6])
        rng = random.Random(0)
        assert rng.choice(ids) in {2, 4, 6}


class TestBinarySearch:
    def test_matches_stdlib_bisect(self):
        values = sorted(random.Random(7).sample(range(10_000), 200))
        ids = SortedIdArray(ids=values)
        for probe in [0, 1, 50, 9999, 10_000, values[3], values[-1]]:
            assert ids.bisect_left(probe) == bisect.bisect_left(values, probe)
            assert ids.bisect_right(probe) == bisect.bisect_right(values, probe)

    def test_lo_hi_window(self):
        values = [10, 20, 30, 40, 50]
        ids = SortedIdArray(ids=values)
        assert ids.bisect_left(30, 1, 4) == bisect.bisect_left(values, 30, 1, 4)
        assert ids.bisect_right(30, 1, 4) == bisect.bisect_right(values, 30, 1, 4)

    def test_uint64_overflow_clamps_high(self):
        # Kademlia/Pastry range queries probe base + 2^i, which can
        # equal 2^64 on a 64-bit space: every stored id is smaller.
        ids = SortedIdArray(bits=64, ids=[1, (1 << 64) - 1])
        assert ids.bisect_left(1 << 64) == 2
        assert ids.bisect_right(1 << 64) == 2
        assert ids.bisect_left(-1) == 0

    @pytest.mark.parametrize("bits", [8, 64, 80])
    def test_ring_neighbours_wrap(self, bits):
        top = (1 << bits) - 1
        ids = SortedIdArray(bits=bits, ids=[0, 7, 40, top])
        assert ids.first_at_or_after(7) == 7
        assert ids.first_at_or_after(8) == 40
        assert ids.first_at_or_after(top) == top
        assert ids.first_at_or_after(top + 1) == 0  # past the top: wraps
        assert ids.last_before(7) == 0
        assert ids.last_before(8) == 7
        assert ids.last_before(0) == top  # below the bottom: wraps
        lone = SortedIdArray(bits=bits, ids=[9])
        assert lone.first_at_or_after(10) == 9 and lone.last_before(9) == 9
        for empty_call in (
            SortedIdArray(bits=bits).first_at_or_after,
            SortedIdArray(bits=bits).last_before,
        ):
            with pytest.raises(IndexError):
                empty_call(3)

    def test_wide_spaces_use_object_buffer(self):
        huge = 1 << 200
        ids = SortedIdArray(bits=256, ids=[3, huge])
        assert ids.tolist() == [3, huge]
        assert huge in ids
        assert ids.bisect_left(huge) == 1
        ids.insert(huge - 1)
        assert ids.tolist() == [3, huge - 1, huge]


class TestMutation:
    def test_insert_keeps_sorted_and_grows(self):
        ids = SortedIdArray()
        for value in [50, 10, 30, 20, 40, 60, 5, 55, 35, 15]:
            ids.insert(value)
        assert ids.tolist() == sorted([50, 10, 30, 20, 40, 60, 5, 55, 35, 15])

    def test_insert_duplicate_raises(self):
        ids = SortedIdArray(ids=[7])
        with pytest.raises(ValueError, match="already present"):
            ids.insert(7)

    def test_remove(self):
        ids = SortedIdArray(ids=[1, 2, 3])
        ids.remove(2)
        assert ids.tolist() == [1, 3]
        with pytest.raises(ValueError, match="not present"):
            ids.remove(2)

    def test_merge_bulk(self):
        ids = SortedIdArray(ids=[10, 30])
        ids.merge([20, 5, 40])
        assert ids.tolist() == [5, 10, 20, 30, 40]
        ids.merge([])
        assert ids.tolist() == [5, 10, 20, 30, 40]

    def test_merge_duplicate_leaves_unchanged(self):
        ids = SortedIdArray(ids=[10, 30])
        with pytest.raises(ValueError, match="already present"):
            ids.merge([20, 30])
        assert ids.tolist() == [10, 30]
        with pytest.raises(ValueError, match="already present"):
            ids.merge([21, 21])
        assert ids.tolist() == [10, 30]

    def test_single_value_merge_into_empty(self):
        ids = SortedIdArray()
        ids.merge([4])
        assert ids.tolist() == [4]

    def test_matches_list_model_under_churn(self):
        rng = random.Random(11)
        model = []
        ids = SortedIdArray()
        for _ in range(500):
            if model and rng.random() < 0.4:
                victim = rng.choice(model)
                model.remove(victim)
                ids.remove(victim)
            else:
                value = rng.randrange(1 << 32)
                if value not in model:
                    bisect.insort(model, value)
                    ids.insert(value)
        assert ids.tolist() == model

    def test_nbytes_tracks_buffer(self):
        ids = SortedIdArray(ids=list(range(100)))
        assert ids.nbytes == 100 * 8
