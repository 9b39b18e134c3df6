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
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.sketches.constants import (
    PCSA_PHI,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)

__all__ = [
    "PLANE_ESTIMATORS",
    "pcsa_estimate",
    "plane_rank_histogram",
    "register_rank_histogram",
    "superloglog_estimate",
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
    m0 = left = sll_truncated_count(m)
    rank_sum = 0
    for rank, count in enumerate(counts):
        if count >= left:
            rank_sum += rank * left
            break
        rank_sum += rank * count
        left -= count
    return sll_alpha_tilde(m) * m0 * 2.0 ** (rank_sum / m0)


def pcsa_estimate(rank_sum: int, m: int, bias_correction: bool = True) -> float:
    """FM85 PCSA (paper eq. 4): ``(1/phi) * m * 2^(mean R)``.

    For a *non-empty* sketch: a bitmap holding only high bits has
    ``R = 0`` without being empty, so emptiness (estimate 0) is not a
    function of ``rank_sum`` and is decided by the caller.
    """
    value = (1.0 / PCSA_PHI) * m * 2.0 ** (rank_sum / m)
    if bias_correction:
        value /= pcsa_bias_factor(m)
    return value


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
