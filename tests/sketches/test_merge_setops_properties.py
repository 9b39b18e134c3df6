"""Hypothesis property tests for sketches/merge.py and sketches/setops.py.

The example-based coverage in test_setops.py pins specific values; these
tests pin the *algebra*: ``union_all`` is commutative, associative, and
idempotent over sketch state, and every set-expression estimate is
invariant under the order its operands are presented in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.sketches import PCSASketch, SuperLogLogSketch
from repro.sketches.merge import union_all
from repro.sketches.setops import estimate_intersection
from repro.hashing.family import MixerHash

ALL_SKETCHES = [PCSASketch, SuperLogLogSketch]

items_strategy = st.lists(st.integers(min_value=0, max_value=10**9), max_size=150)
sketch_cls_strategy = st.sampled_from(ALL_SKETCHES)


def build(cls, items, m=16):
    sketch = cls(m=m, hash_family=MixerHash(bits=64, seed=5))
    sketch.add_all(items)
    return sketch


def state_of(sketch):
    return sketch.registers() if hasattr(sketch, "registers") else sketch.bitmaps()


class TestUnionAllAlgebra:
    @given(sketch_cls_strategy, st.permutations(range(4)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, cls, order, data):
        item_lists = [
            data.draw(items_strategy, label=f"items[{i}]") for i in range(4)
        ]
        sketches = [build(cls, items) for items in item_lists]
        reference = union_all(sketches)
        permuted = union_all([sketches[i] for i in order])
        assert state_of(permuted) == state_of(reference)
        assert permuted.estimate() == reference.estimate()

    @given(sketch_cls_strategy, items_strategy, items_strategy, items_strategy)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, cls, a, b, c):
        x, y, z = build(cls, a), build(cls, b), build(cls, c)
        flat = union_all([x, y, z])
        nested = union_all([union_all([x, y]), z])
        assert state_of(flat) == state_of(nested)

    @given(sketch_cls_strategy, items_strategy)
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, cls, items):
        sketch = build(cls, items)
        doubled = union_all([sketch, sketch, sketch])
        assert state_of(doubled) == state_of(sketch)
        assert doubled.estimate() == sketch.estimate()

    @given(sketch_cls_strategy, items_strategy, items_strategy)
    @settings(max_examples=40, deadline=None)
    def test_does_not_mutate_inputs(self, cls, a, b):
        x, y = build(cls, a), build(cls, b)
        before_x, before_y = state_of(x), state_of(y)
        union_all([x, y])
        assert state_of(x) == before_x
        assert state_of(y) == before_y

    @given(sketch_cls_strategy, st.permutations(range(3)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_estimate_union_permutation_invariant(self, cls, order, data):
        item_lists = [
            data.draw(items_strategy, label=f"items[{i}]") for i in range(3)
        ]
        sketches = [build(cls, items) for items in item_lists]
        reference = union_all(sketches).estimate()
        assert union_all([sketches[i] for i in order]).estimate() == reference

    def test_empty_iterable_rejected(self):
        with pytest.raises(SketchError):
            union_all([])


class TestSetOpEstimates:
    @given(sketch_cls_strategy, items_strategy, items_strategy)
    @settings(max_examples=40, deadline=None)
    def test_intersection_symmetric(self, cls, a_items, b_items):
        a, b = build(cls, a_items), build(cls, b_items)
        assert estimate_intersection(a, b) == estimate_intersection(b, a)

    @given(sketch_cls_strategy, items_strategy, items_strategy)
    @settings(max_examples=40, deadline=None)
    def test_intersection_bounded(self, cls, a_items, b_items):
        a, b = build(cls, a_items), build(cls, b_items)
        estimate = estimate_intersection(a, b)
        assert 0.0 <= estimate <= a.estimate() + b.estimate()
