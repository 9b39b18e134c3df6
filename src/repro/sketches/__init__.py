"""Hash-sketch substrate: PCSA, LogLog, super-LogLog, HyperLogLog, linear counting."""

from repro.sketches.base import HashSketch, required_key_bits, split_key
from repro.sketches.constants import (
    PCSA_PHI,
    SLL_THETA0,
    hll_alpha,
    loglog_alpha,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)
from repro.sketches.hyperloglog import HyperLogLogSketch
from repro.sketches.linear_counting import LinearCounter, linear_counting_estimate
from repro.sketches.loglog import LogLogSketch, SuperLogLogSketch
from repro.sketches.merge import union_all
from repro.sketches.pcsa import PCSASketch
from repro.sketches.setops import estimate_intersection

#: Registry of the sketch estimators usable inside DHS, by short name.
SKETCH_TYPES = {
    PCSASketch.name: PCSASketch,
    LogLogSketch.name: LogLogSketch,
    SuperLogLogSketch.name: SuperLogLogSketch,
    HyperLogLogSketch.name: HyperLogLogSketch,
}

__all__ = [
    "HashSketch",
    "required_key_bits",
    "split_key",
    "PCSA_PHI",
    "SLL_THETA0",
    "hll_alpha",
    "loglog_alpha",
    "pcsa_bias_factor",
    "sll_alpha_tilde",
    "sll_truncated_count",
    "HyperLogLogSketch",
    "LinearCounter",
    "linear_counting_estimate",
    "LogLogSketch",
    "SuperLogLogSketch",
    "union_all",
    "PCSASketch",
    "estimate_intersection",
    "SKETCH_TYPES",
]
