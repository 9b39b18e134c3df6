"""The errors-and-retries model of paper section 4.1.

When ``n'`` items have been spread uniformly over the ``N'`` nodes of an
id-space interval, probing ``t`` distinct nodes misses all of them with
probability ``P(X = t) = ((N' - t) / N')^n'`` (paper eq. 5).  Solving for
``t`` yields the per-interval probe budget ``lim`` (eq. 6); DHS uses the
constant default 5, which guarantees >= 0.99 success whenever the items
mapped to an interval outnumber its nodes.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "prob_all_probes_empty",
    "lim_for_interval",
    "lim_with_replication",
    "success_probability",
]


def _check_bins(n_items: float, n_bins: float) -> None:
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")


def prob_all_probes_empty(n_items: float, n_bins: float, t: int) -> float:
    """Paper eq. 5: probability the first ``t`` probed bins are empty."""
    _check_bins(n_items, n_bins)
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if t >= n_bins:
        return 0.0
    return ((n_bins - t) / n_bins) ** n_items


def lim_for_interval(p: float, n_items: float, n_bins: float) -> int:
    """Paper's ``lim``: probes needed to hit a non-empty bin w.p. >= p.

    ``lim = ceil(N' * (1 - (1-p)^(1/n')))``; at least 1, at most ``N'``.
    """
    _check_bins(n_items, n_bins)
    if not 0 < p < 1:
        raise ConfigurationError(f"p must be in (0, 1), got {p}")
    if n_items == 0:
        return math.ceil(n_bins)  # nothing stored: only exhaustion is certain
    lim = math.ceil(n_bins * (1.0 - (1.0 - p) ** (1.0 / n_items)))
    return max(1, min(lim, math.ceil(n_bins)))


def lim_with_replication(p: float, n_items: float, n_bins: float, m: int, replication: int) -> int:
    """``lim^R_m``: eq. 6 — items split over ``m`` bitmaps, and
    replication multiplies the stored copies (``replication=1`` is the
    unreplicated ``lim_m``)."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if replication < 1:
        raise ConfigurationError(f"replication must be >= 1, got {replication}")
    return lim_for_interval(p, replication * n_items / m, n_bins)


def success_probability(n_items: float, n_bins: float, lim: int) -> float:
    """Probability that ``lim`` probes find a non-empty bin (inverse view).

    ``lim >= n_bins`` means exhaustion: every bin is probed, so success is
    certain.  ``prob_all_probes_empty`` handles that branch — flooring the
    budget to ``int(n_bins)`` here would miss it for fractional ``n_bins``
    (expected node counts are real-valued) and understate the probability.
    """
    return 1.0 - prob_all_probes_empty(n_items, n_bins, lim)
