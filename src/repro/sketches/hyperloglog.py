"""HyperLogLog (Flajolet, Fusy, Gandouet & Meunier 2007).

Published the year after the paper, HyperLogLog replaces super-LogLog's
truncated arithmetic mean with a harmonic mean and is the natural
"future work" successor of the estimators DHS ships.  Included as an
extension: it shares the insertion path and register layout of
:class:`~repro.sketches.loglog.LogLogSketch`, so it can also be
reconstructed from DHS bits.
"""

from __future__ import annotations

from repro.errors import EstimationError
from repro.sketches.estimators import hyperloglog_estimate
from repro.sketches.loglog import LogLogSketch

__all__ = ["HyperLogLogSketch"]


class HyperLogLogSketch(LogLogSketch):
    """Harmonic-mean LogLog with the standard small-range correction.

    Relative standard error ≈ ``1.04 / sqrt(m)``.  The large-range
    correction of the original paper is unnecessary with 64-bit hashes and
    is deliberately omitted.
    """

    name = "hll"

    def estimate(self) -> float:
        # Summed in register order, the reference any other summation
        # must match: the rank-histogram sum of the distributed count
        # does so only up to estimators.HLL_EXACT_KEY_BITS.
        indicator = sum(2.0**-r for r in self._registers)
        return hyperloglog_estimate(indicator, self._registers.count(0), self.m)

    @classmethod
    def expected_std_error(cls, m: int) -> float:
        """FFGM07: ``1.04 / sqrt(m)``."""
        if m < 1:
            raise EstimationError(f"m must be >= 1, got {m}")
        return 1.04 / m**0.5
