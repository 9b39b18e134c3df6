"""Hypothesis property tests on sketch invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.family import MixerHash
from repro.sketches import PCSASketch, SuperLogLogSketch

ALL_SKETCHES = [PCSASketch, SuperLogLogSketch]

items_strategy = st.lists(st.integers(min_value=0, max_value=10**9), max_size=200)
sketch_cls_strategy = st.sampled_from(ALL_SKETCHES)


def build(cls, items, m=16):
    sketch = cls(m=m, hash_family=MixerHash(bits=64, seed=5))
    sketch.add_all(items)
    return sketch


def state_of(sketch):
    return sketch.registers() if hasattr(sketch, "registers") else sketch.bitmaps()


@given(sketch_cls_strategy, items_strategy)
@settings(max_examples=60, deadline=None)
def test_insertion_order_irrelevant(cls, items):
    forward = build(cls, items)
    backward = build(cls, list(reversed(items)))
    assert state_of(forward) == state_of(backward)


@given(sketch_cls_strategy, items_strategy, items_strategy)
@settings(max_examples=60, deadline=None)
def test_merge_equals_concatenation(cls, a_items, b_items):
    merged = build(cls, a_items).union(build(cls, b_items))
    direct = build(cls, a_items + b_items)
    assert state_of(merged) == state_of(direct)


@given(sketch_cls_strategy, items_strategy, items_strategy, items_strategy)
@settings(max_examples=40, deadline=None)
def test_union_associative(cls, a, b, c):
    left = build(cls, a).union(build(cls, b)).union(build(cls, c))
    right = build(cls, a).union(build(cls, b).union(build(cls, c)))
    assert state_of(left) == state_of(right)


@given(sketch_cls_strategy, items_strategy, items_strategy)
@settings(max_examples=60, deadline=None)
def test_estimate_monotone_under_union(cls, a_items, b_items):
    """Adding more state never takes any away: every register only
    grows and every bitmap only gains bits."""
    base = build(cls, a_items)
    grown = base.union(build(cls, b_items))
    for lhs, rhs in zip(state_of(base), state_of(grown)):
        if hasattr(base, "registers"):
            assert rhs >= lhs
        else:
            assert rhs & lhs == lhs  # bitmap only gains bits


@given(sketch_cls_strategy, items_strategy)
@settings(max_examples=60, deadline=None)
def test_duplication_invariance(cls, items):
    once = build(cls, items)
    thrice = build(cls, items * 3)
    assert state_of(once) == state_of(thrice)


@given(sketch_cls_strategy, items_strategy)
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(cls, items):
    sketch = build(cls, items)
    rebuilt = cls.from_bytes(
        sketch.to_bytes(), m=16, key_bits=64, hash_family=MixerHash(bits=64, seed=5)
    )
    assert state_of(rebuilt) == state_of(sketch)


@given(sketch_cls_strategy, items_strategy)
@settings(max_examples=60, deadline=None)
def test_estimate_nonnegative_and_finite(cls, items):
    estimate = build(cls, items).estimate()
    assert estimate >= 0.0
    assert estimate != float("inf")
