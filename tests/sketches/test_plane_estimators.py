"""Estimates from bit planes equal ``estimate()`` of the rebuilt sketch.

The distributed count never builds a sketch: it hands each metric's bit
planes to :data:`repro.sketches.estimators.PLANE_ESTIMATORS`.  These
properties generate plane sets of the two shapes a scan produces —
disjoint (LogLog family: the bitmaps whose maximum is each position) and
nested (PCSA: the bitmaps confirmed up to each position) — and require
the plane route and the ``record_mask`` + ``estimate()`` route to agree
*exactly*, not approximately.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import SKETCH_TYPES
from repro.sketches.estimators import (
    HLL_EXACT_KEY_BITS,
    PLANE_ESTIMATORS,
    hyperloglog_indicator,
    plane_rank_histogram,
    plane_rank_sum,
    register_rank_histogram,
)

LOGLOG_FAMILY = ["loglog", "sll", "hll"]
POSITION_BITS = 12


def rebuilt(estimator, planes, m):
    """The sketch today's eager rebuild would produce from ``planes``."""
    sketch = SKETCH_TYPES[estimator](m=m, key_bits=POSITION_BITS + m.bit_length() - 1)
    assert sketch.position_bits == POSITION_BITS
    for position, plane in enumerate(planes):
        sketch.record_mask(plane, position)
    return sketch


@st.composite
def disjoint_planes(draw):
    """A downward scan's planes: each bucket in at most one plane.

    Below ``bit_shift`` only position ``bit_shift - 1`` is ever written
    (the unresolved remainder), and then every bucket is in some plane.
    """
    m = draw(st.sampled_from([2, 64, 512]))
    bit_shift = draw(st.sampled_from([0, 3]))
    # -1 = never hit (only without a shift: the remainder is assumed set).
    ranks = draw(
        st.lists(
            st.integers(min_value=bit_shift - 1, max_value=POSITION_BITS - 1),
            min_size=m,
            max_size=m,
        )
    )
    planes = [0] * POSITION_BITS
    for bucket, position in enumerate(ranks):
        if position >= 0:
            planes[position] |= 1 << bucket
    return m, planes


@st.composite
def nested_planes(draw):
    """An upward scan's planes: full below the shift, shrinking above."""
    m = draw(st.sampled_from([2, 64, 512]))
    bit_shift = draw(st.sampled_from([0, 3]))
    # Each bucket's leftmost zero, at or above the shift.
    zeros = draw(
        st.lists(
            st.integers(min_value=bit_shift, max_value=POSITION_BITS),
            min_size=m,
            max_size=m,
        )
    )
    planes = [
        sum(1 << bucket for bucket, zero in enumerate(zeros) if zero > position)
        for position in range(POSITION_BITS)
    ]
    return m, planes


@pytest.mark.parametrize("estimator", LOGLOG_FAMILY)
@given(disjoint_planes())
@settings(max_examples=60, deadline=None)
def test_loglog_family_planes_equal_rebuilt_sketch(estimator, case):
    m, planes = case
    sketch = rebuilt(estimator, planes, m)
    assert PLANE_ESTIMATORS[estimator](planes, m) == sketch.estimate()
    counts = register_rank_histogram(sketch.registers())
    counts += [0] * (POSITION_BITS + 1 - len(counts))  # sized by the max rank
    assert plane_rank_histogram(planes, m) == counts


@given(nested_planes())
@settings(max_examples=60, deadline=None)
def test_pcsa_planes_equal_rebuilt_sketch(case):
    m, planes = case
    sketch = rebuilt("pcsa", planes, m)
    assert plane_rank_sum(planes) == sum(sketch.observables())
    assert PLANE_ESTIMATORS["pcsa"](planes, m) == sketch.estimate()


@pytest.mark.parametrize("m", [2, 64, 512])
@pytest.mark.parametrize("estimator", sorted(PLANE_ESTIMATORS))
def test_all_empty_planes_estimate_zero(estimator, m):
    planes = [0] * POSITION_BITS
    assert PLANE_ESTIMATORS[estimator](planes, m) == 0.0
    assert rebuilt(estimator, planes, m).estimate() == 0.0


@pytest.mark.parametrize("m", [2, 64, 512])
@pytest.mark.parametrize("estimator", sorted(PLANE_ESTIMATORS))
def test_all_resolved_at_top_position(estimator, m):
    full = (1 << m) - 1
    if estimator == "pcsa":
        planes = [full] * POSITION_BITS  # every bit of every bitmap set
    else:
        planes = [0] * (POSITION_BITS - 1) + [full]  # every maximum at the top
    expected = rebuilt(estimator, planes, m).estimate()
    assert expected > 0.0
    assert PLANE_ESTIMATORS[estimator](planes, m) == expected


def test_hll_histogram_sum_is_exact_up_to_the_documented_key_bits():
    """One bucket at every rank: the worst case for summation order."""
    m = 64
    position_bits = HLL_EXACT_KEY_BITS - 6
    registers = list(range(position_bits + 1)) + [0] * (m - position_bits - 1)
    assert len(registers) == m
    counts = register_rank_histogram(registers)
    ascending = sum(2.0**-r for r in registers)
    descending = sum(2.0**-r for r in reversed(registers))
    assert hyperloglog_indicator(counts) == ascending == descending
