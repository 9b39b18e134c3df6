"""Set-expression estimates over sketches: intersection by inclusion–exclusion.

Sketch union is exact-by-construction (register-wise merge); intersection
comes from inclusion–exclusion::

    |A ∩ B| = |A| + |B| - |A ∪ B|

The caveat every user must know: inclusion–exclusion subtracts large
noisy numbers, so the *absolute* error of an intersection estimate is on
the order of ``sigma * (|A| + |B|)`` — tiny intersections of big sets are
unrecoverable.  (This is inherent to LogLog-family sketches, not to the
distribution; it is why stream-processing works cited by the paper pair
sketches with other synopses for set expressions.)

This operates on reconstructed local sketches, so the same helper serves
both centralized sketches and DHS count results.
"""

from __future__ import annotations

from repro.sketches.base import HashSketch
from repro.sketches.merge import union_all

__all__ = ["estimate_intersection"]


def estimate_intersection(a: HashSketch, b: HashSketch) -> float:
    """Inclusion–exclusion estimate of ``|A ∩ B|`` (clamped at 0)."""
    a.check_compatible(b)
    union = union_all([a, b]).estimate()
    return max(0.0, a.estimate() + b.estimate() - union)
