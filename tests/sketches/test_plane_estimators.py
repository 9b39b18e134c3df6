"""Estimates from plane popcounts equal ``estimate()`` of the rebuilt sketch.

The distributed count never builds a sketch: it hands the popcount of
each of a metric's bit planes to
:data:`repro.sketches.estimators.PLANE_ESTIMATORS`, or a block's whole
lane popcount matrix to ``LANE_ESTIMATORS``.  These properties
generate plane sets of the two shapes a scan produces — disjoint
(super-LogLog: the bitmaps whose maximum is each position) and nested
(PCSA: the bitmaps confirmed up to each position) — and require the
popcount route and the ``record_mask`` + ``estimate()`` route to agree
*exactly*, not approximately; the last test holds the batched route to
the scalar one, lane by lane, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import SKETCH_TYPES
from repro.sketches.constants import sll_alpha_tilde, sll_truncated_count
from repro.sketches.estimators import (
    LANE_ESTIMATORS,
    PLANE_ESTIMATORS,
    plane_rank_histogram,
    register_rank_histogram,
    superloglog_estimate,
)

POSITION_BITS = 12


def rebuilt(estimator, planes, m):
    """The sketch today's eager rebuild would produce from ``planes``."""
    sketch = SKETCH_TYPES[estimator](m=m, key_bits=POSITION_BITS + m.bit_length() - 1)
    assert sketch.position_bits == POSITION_BITS
    for position, plane in enumerate(planes):
        sketch.record_mask(plane, position)
    return sketch


def popcounts(planes):
    return [plane.bit_count() for plane in planes]


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


@pytest.mark.parametrize("estimator", ["sll"])
@given(disjoint_planes())
@settings(max_examples=60, deadline=None)
def test_loglog_family_planes_equal_rebuilt_sketch(estimator, case):
    m, planes = case
    sketch = rebuilt(estimator, planes, m)
    assert PLANE_ESTIMATORS[estimator](popcounts(planes), m) == sketch.estimate()
    counts = register_rank_histogram(sketch.registers())
    counts += [0] * (POSITION_BITS + 1 - len(counts))  # sized by the max rank
    assert plane_rank_histogram(popcounts(planes), m) == counts


@given(nested_planes())
@settings(max_examples=60, deadline=None)
def test_pcsa_planes_equal_rebuilt_sketch(case):
    m, planes = case
    sketch = rebuilt("pcsa", planes, m)
    assert sum(popcounts(planes)) == sum(sketch.observables())
    assert PLANE_ESTIMATORS["pcsa"](popcounts(planes), m) == sketch.estimate()


@pytest.mark.parametrize("m", [2, 64, 512])
@pytest.mark.parametrize("estimator", sorted(PLANE_ESTIMATORS))
def test_all_empty_planes_estimate_zero(estimator, m):
    planes = [0] * POSITION_BITS
    assert PLANE_ESTIMATORS[estimator](popcounts(planes), m) == 0.0
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
    assert PLANE_ESTIMATORS[estimator](popcounts(planes), m) == expected


def min_loop_superloglog(counts, m):
    """super-LogLog as first written: one ``min()`` per rank."""
    if counts[0] == m:
        return 0.0
    m0 = sll_truncated_count(m)
    kept = rank_sum = 0
    for rank, count in enumerate(counts):
        take = min(count, m0 - kept)
        rank_sum += rank * take
        kept += take
        if kept == m0:
            break
    return sll_alpha_tilde(m) * m0 * 2.0 ** (rank_sum / m0)


@st.composite
def rank_histograms(draw):
    m = draw(st.sampled_from([1, 2, 4, 64, 512]))
    ranks = st.integers(min_value=0, max_value=POSITION_BITS)
    registers = draw(st.lists(ranks, min_size=m, max_size=m))
    return m, register_rank_histogram(registers)


@given(rank_histograms())
@settings(max_examples=200, deadline=None)
def test_superloglog_running_remainder_equals_min_loop(case):
    m, counts = case
    assert superloglog_estimate(counts, m) == min_loop_superloglog(counts, m)


@pytest.mark.parametrize("m", [2, 64, 512])
def test_superloglog_running_remainder_at_the_truncation_edges(m):
    m0 = sll_truncated_count(m)
    cases = [
        [m0, 0, 0, m - m0],  # counts[0] reaches m0 exactly
        [m - 1, 0, 1],  # counts[0] beyond m0
        [0, 1, m0 - 1, m - m0],  # m0 reached exactly at the end of rank 2
        [0, 0, 0, m],  # m0 inside the only non-empty rank
    ]
    for counts in cases:
        assert sum(counts) == m
        assert superloglog_estimate(counts, m) == min_loop_superloglog(counts, m)


# ----------------------------------------------------------------------
# The batched lane estimators against the scalar one, lane by lane.
# ----------------------------------------------------------------------
def random_row(rng, m, positions):
    """Popcounts of disjoint planes: ``m`` buckets over ``positions + 1`` ranks."""
    ranks = rng.integers(0, positions + 1, size=m)
    return np.bincount(ranks, minlength=positions + 1)[1:]


def edge_rows(rng, m, positions):
    """Rows at the edges of the truncation rule and of emptiness."""
    m0 = sll_truncated_count(m)
    empty = np.zeros(positions, dtype=np.int64)
    yield empty  # counts[0] == m, PCSA rank sum 0
    # counts[0] >= m0: at most m - m0 buckets hit.
    hit = rng.integers(0, m - m0 + 1)
    row = empty.copy()
    np.add.at(row, rng.integers(0, positions, size=hit), 1)
    yield row
    # m0 reached exactly at the end of rank ``edge``: ranks 0..edge hold
    # m0 buckets between them and every other bucket ranks higher.
    if positions >= 2:
        edge = int(rng.integers(1, positions))
        low = np.bincount(rng.integers(0, edge + 1, size=m0), minlength=edge + 1)
        high = np.bincount(
            rng.integers(edge + 1, positions + 1, size=m - m0), minlength=positions + 1
        )
        row = high[1:].copy()
        row[:edge] += low[1:]
        assert row.sum() + low[0] == m and low[0] + row[:edge].sum() == m0
        yield row
    row = empty.copy()
    row[-1] = m  # every bucket at the top rank
    yield row


def nested_row(rng, m, positions):
    """Popcounts of nested planes: non-increasing from the first position."""
    zeros = rng.integers(0, positions + 1, size=m)  # each bucket's leftmost zero
    return np.array([(zeros > p).sum() for p in range(positions)], dtype=np.int64)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 64, 128, 512])
def test_lane_estimators_equal_the_scalar_estimator_per_lane(m):
    rng = np.random.default_rng(m)
    for trial in range(12):
        positions = int(rng.integers(1, 20))
        lanes = int(rng.integers(1, 65))
        edges = list(edge_rows(rng, m, positions))
        shapes = {
            "sll": lambda: random_row(rng, m, positions),
            "pcsa": lambda: nested_row(rng, m, positions),
        }
        for estimator, draw in shapes.items():
            rows = [draw() for _ in range(lanes)]
            # Edge rows replace random ones, each at its own lane.
            for lane, edge in zip(rng.permutation(lanes).tolist(), edges):
                rows[lane] = edge
            matrix = np.array(rows, dtype=np.int64)
            if trial % 2:  # the layout _lane_popcounts returns: a transposed view
                matrix = np.ascontiguousarray(matrix.T).T
            batched = LANE_ESTIMATORS[estimator](matrix, m)
            scalar = [PLANE_ESTIMATORS[estimator](row.tolist(), m) for row in matrix]
            assert len(batched) == lanes
            assert [float.hex(x) for x in batched] == [float.hex(x) for x in scalar]
            assert {type(x) for x in batched} == {float}
