"""Estimator constants for the sketch family.

* PCSA (Flajolet–Martin 1985): the magic constant ``phi = 0.77351`` from
  eq. 4 of the paper, and the ``1 + 0.31/m`` first-order bias factor.
* super-LogLog (Durand–Flajolet 2003): the truncation constant
  ``alpha-tilde``, calibrated by register-level Monte Carlo
  (``tools/calibrate_sll.py``; Poissonized, lambda = 4096 items/bucket,
  ~600k register draws per m, seed 20060401).
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "PCSA_PHI",
    "pcsa_bias_factor",
    "SLL_THETA0",
    "sll_alpha_tilde",
    "sll_truncated_count",
]

#: FM85's ``phi``: E(n) = (1/phi) * m * 2^(mean R) (paper eq. 4).
PCSA_PHI = 0.77351

#: super-LogLog truncation ratio (theta_0 in the paper, near-optimal 0.7).
SLL_THETA0 = 0.7


def pcsa_bias_factor(m: int) -> float:
    """FM85's small-``m`` multiplicative bias, ``1 + 0.31/m``."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 1.0 + 0.31 / m


#: Monte-Carlo calibrated alpha-tilde for the truncated (super-LogLog)
#: estimator, keyed by m (powers of two).  Values for m <= 8 are dominated
#: by the degeneracy of the truncation rule at tiny m and carry large
#: statistical error bars; super-LogLog is intended for m >= 16.
_SLL_ALPHA_TILDE: dict[int, float] = {
    1: 0.062488,
    2: 0.996547,
    4: 1.500241,
    8: 1.188916,
    16: 1.058908,
    32: 1.101476,
    64: 1.120660,
    128: 1.103401,
    256: 1.091208,
    512: 1.095392,
    1024: 1.089956,
    2048: 1.092432,
    4096: 1.091453,
    8192: 1.092678,
    16384: 1.090642,
}

_SLL_ALPHA_ASYMPTOTIC = 1.0915


@cache
def sll_truncated_count(m: int) -> int:
    """Number of registers kept by the truncation rule, ``max(1, ⌊θ0·m⌋)``.

    Cached per ``m``, like :func:`sll_alpha_tilde`: every super-LogLog
    estimate asks for both.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return max(1, int(SLL_THETA0 * m))


@cache
def sll_alpha_tilde(m: int) -> float:
    """Calibrated alpha-tilde for ``m`` buckets.

    Exact table entries for powers of two up to 16384; geometric
    interpolation between table entries otherwise, and the asymptotic
    value beyond the table.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m in _SLL_ALPHA_TILDE:
        return _SLL_ALPHA_TILDE[m]
    if m > max(_SLL_ALPHA_TILDE):
        return _SLL_ALPHA_ASYMPTOTIC
    lower = max(key for key in _SLL_ALPHA_TILDE if key < m)
    upper = min(key for key in _SLL_ALPHA_TILDE if key > m)
    weight = (math.log2(m) - math.log2(lower)) / (math.log2(upper) - math.log2(lower))
    return _SLL_ALPHA_TILDE[lower] * (1 - weight) + _SLL_ALPHA_TILDE[upper] * weight

