"""Hash-sketch substrate: the paper's PCSA and super-LogLog estimators."""

from repro.sketches.base import HashSketch, required_key_bits, split_key
from repro.sketches.constants import (
    PCSA_PHI,
    SLL_THETA0,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)
from repro.sketches.loglog import SuperLogLogSketch
from repro.sketches.merge import union_all
from repro.sketches.pcsa import PCSASketch
from repro.sketches.setops import estimate_intersection

#: Registry of the sketch estimators usable inside DHS, by short name.
SKETCH_TYPES = {
    PCSASketch.name: PCSASketch,
    SuperLogLogSketch.name: SuperLogLogSketch,
}

__all__ = [
    "HashSketch",
    "required_key_bits",
    "split_key",
    "PCSA_PHI",
    "SLL_THETA0",
    "pcsa_bias_factor",
    "sll_alpha_tilde",
    "sll_truncated_count",
    "SuperLogLogSketch",
    "union_all",
    "PCSASketch",
    "estimate_intersection",
    "SKETCH_TYPES",
]
