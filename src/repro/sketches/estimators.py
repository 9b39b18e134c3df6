"""Cardinality estimators as pure functions of a sufficient statistic.

Each of the paper's two estimators reads its ``m`` buckets only through
a small summary, so neither a sketch object nor a pass over ``m``
registers is needed to evaluate one:

* super-LogLog is a function of the **rank histogram** ``counts[r]`` =
  number of buckets whose register (the 1-indexed max rank, 0 = never
  hit) equals ``r`` — the statistic Ertl's estimators are written over
  (arXiv 1706.07290).
* PCSA is a function of the **rank sum** ``sum_j R_j`` over the buckets'
  leftmost-zero positions (Pettie–Wang treat both sketches as functions
  of exactly this state, arXiv 2208.10578).

The sketch classes compute the statistic from their registers and the
distributed count (:mod:`repro.core.count`) from the **popcounts of its
bit planes** — ``planes[p]`` is an ``m``-bit integer whose bit ``j``
says bucket ``j`` has position ``p``, and ``popcounts[p]`` its number of
set bits; both then call the same function here, so each formula exists
once.  The super-LogLog truncated sum and the PCSA rank sum are integer
sums, so the two routes agree to the last bit.

A multi-metric count estimates a whole block of metrics at once:
:data:`LANE_ESTIMATORS` maps an estimator name to a function of the
``(lanes, positions)`` popcount matrix that computes every lane's
integer statistic in one numpy pass (:func:`superloglog_lanes`,
:func:`pcsa_lanes`) and hands the statistics to the same float formula
as the scalar path (:func:`superloglog_from_rank_sums`,
:func:`pcsa_from_rank_sums`), so the estimates agree to the last bit too.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np
import numpy.typing as npt

from repro.sketches.constants import (
    PCSA_PHI,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)

__all__ = [
    "LANE_ESTIMATORS",
    "PLANE_ESTIMATORS",
    "pcsa_estimate",
    "pcsa_from_rank_sums",
    "pcsa_lanes",
    "plane_rank_histogram",
    "register_rank_histogram",
    "superloglog_estimate",
    "superloglog_from_rank_sums",
    "superloglog_lanes",
]

# ----------------------------------------------------------------------
# Sufficient statistics.
# ----------------------------------------------------------------------
def register_rank_histogram(registers: Sequence[int]) -> List[int]:
    """Rank histogram of a max-rank register array (0 = bucket never hit)."""
    counts = [0] * (max(registers, default=0) + 1)
    for rank in registers:
        counts[rank] += 1
    return counts


def plane_rank_histogram(popcounts: Sequence[int], m: int) -> List[int]:
    """Rank histogram of ``m`` buckets given as *disjoint* bit planes.

    ``popcounts[p]`` counts the buckets whose maximum observed position
    is ``p`` (rank ``p + 1``); buckets in no plane were never hit.
    """
    return [m - sum(popcounts), *popcounts]


# ----------------------------------------------------------------------
# Estimators.
# ----------------------------------------------------------------------
def superloglog_estimate(counts: Sequence[int], m: int) -> float:
    """super-LogLog (paper eq. 2): ``alpha~ * m0 * 2^(mean of the m0 smallest ranks)``."""
    if counts[0] == m:
        return 0.0
    left = sll_truncated_count(m)
    rank_sum = 0
    for rank, count in enumerate(counts):
        if count >= left:
            rank_sum += rank * left
            break
        rank_sum += rank * count
        left -= count
    return superloglog_from_rank_sums([rank_sum], m)[0]


def superloglog_from_rank_sums(rank_sums: Iterable[int], m: int) -> List[float]:
    """super-LogLog's formula for each sum of a sketch's ``m0`` smallest ranks."""
    m0 = sll_truncated_count(m)
    scale = sll_alpha_tilde(m) * m0
    return [scale * 2.0 ** (rank_sum / m0) for rank_sum in rank_sums]


def pcsa_estimate(rank_sum: int, m: int, bias_correction: bool = True) -> float:
    """FM85 PCSA (paper eq. 4): ``(1/phi) * m * 2^(mean R)``.

    For a *non-empty* sketch: a bitmap holding only high bits has
    ``R = 0`` without being empty, so emptiness (estimate 0) is not a
    function of ``rank_sum`` and is decided by the caller.
    """
    return pcsa_from_rank_sums([rank_sum], m, bias_correction)[0]


def pcsa_from_rank_sums(
    rank_sums: Iterable[int], m: int, bias_correction: bool = True
) -> List[float]:
    """PCSA's formula for each rank sum (of a *non-empty* sketch)."""
    scale = (1.0 / PCSA_PHI) * m
    bias = pcsa_bias_factor(m) if bias_correction else 1.0
    return [scale * 2.0 ** (rank_sum / m) / bias for rank_sum in rank_sums]


# ----------------------------------------------------------------------
# Estimates straight from one metric's plane popcounts (the DHS count).
# ----------------------------------------------------------------------
def _superloglog_from_planes(popcounts: Sequence[int], m: int) -> float:
    return superloglog_estimate(plane_rank_histogram(popcounts, m), m)


def _pcsa_from_planes(popcounts: Sequence[int], m: int) -> float:
    # Nested planes: when every plane is a subset of the one below it, a
    # bucket's leftmost zero is the number of planes holding it, so the
    # popcounts sum to ``sum_j R_j`` — which is zero exactly when no
    # bucket has position 0, i.e. the planes are empty.
    rank_sum = sum(popcounts)
    return pcsa_estimate(rank_sum, m) if rank_sum else 0.0


#: Estimator name → ``(plane popcounts, m) -> estimate``.  super-LogLog
#: counts disjoint planes (one per maximum position), PCSA nested ones.
PLANE_ESTIMATORS: Dict[str, Callable[[Sequence[int], int], float]] = {
    "sll": _superloglog_from_planes,
    "pcsa": _pcsa_from_planes,
}


# ----------------------------------------------------------------------
# Every lane of a block at once: ``popcounts[lane, position]``.
# ----------------------------------------------------------------------
Popcounts = npt.NDArray[np.int64]


def superloglog_lanes(popcounts: Popcounts, m: int) -> List[float]:
    """Each lane's :func:`_superloglog_from_planes`, in one numpy pass.

    A lane's rank histogram is ``[m - sum(pc), *pc]``; the ``m0``
    smallest ranks take ``min(count, max(m0 - counts below, 0))`` from
    each rank, the running remainder of :func:`superloglog_estimate`.
    """
    lanes, positions = popcounts.shape
    counts = np.empty((lanes, positions + 1), dtype=np.int64)
    counts[:, 1:] = popcounts
    counts[:, 0] = m - popcounts.sum(axis=1)
    below = np.cumsum(counts, axis=1) - counts
    take = np.minimum(counts, np.maximum(sll_truncated_count(m) - below, 0))
    estimates = superloglog_from_rank_sums((take @ np.arange(positions + 1)).tolist(), m)
    for lane in np.flatnonzero(counts[:, 0] == m).tolist():
        estimates[lane] = 0.0
    return estimates


def pcsa_lanes(popcounts: Popcounts, m: int) -> List[float]:
    """Each lane's :func:`_pcsa_from_planes`: one row sum per lane."""
    rank_sums = popcounts.sum(axis=1)
    estimates = pcsa_from_rank_sums(rank_sums.tolist(), m)
    for lane in np.flatnonzero(rank_sums == 0).tolist():
        estimates[lane] = 0.0
    return estimates


#: Estimator name → ``(lane popcount matrix, m) -> estimate per lane``.
LANE_ESTIMATORS: Dict[str, Callable[[Popcounts, int], List[float]]] = {
    "sll": superloglog_lanes,
    "pcsa": pcsa_lanes,
}
