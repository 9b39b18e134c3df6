"""DHS configuration.

Bundles every knob section 3 and 5.1 of the paper expose: DHS key length
``k``, number of bitmap vectors ``m``, the estimator variant, the retry
limit ``lim``, the replication degree ``R``, the fault-tolerance bit
shift ``b``, and soft-state TTLs.  The defaults reproduce the paper's
evaluation setup (k = 24, m = 512, lim = 5, super-LogLog).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.hashing.family import HashFamily, MD4Hash, default_hash_family
from repro.overlay.messages import SizeModel
from repro.sketches import SKETCH_TYPES
from repro.sketches.base import HashSketch

__all__ = ["DHSConfig", "DEFAULT_LIM"]

#: The paper's default probe limit per id-space interval (section 4.1).
DEFAULT_LIM = 5


@dataclass
class DHSConfig:
    """Parameters of one Distributed Hash Sketch deployment.

    Attributes
    ----------
    key_bits:
        The paper's ``k``: DHS keys use the ``k`` low-order bits of the
        DHT keys (k <= L).  24 in the evaluation (counts up to ~16M).
    num_bitmaps:
        The paper's ``m``: number of bitmap vectors; power of two.
    estimator:
        ``"sll"`` (super-LogLog, scanned downward) or ``"pcsa"``
        (scanned upward): the paper's two estimators.
    lim:
        Max nodes probed per id-space interval during counting (the
        constant-``lim`` policy; also the hard cap for the eq6 policy).
    lim_policy:
        ``"fixed"`` probes up to ``lim`` nodes everywhere (the paper's
        default).  ``"eq6"`` sizes the budget per interval from eq. 6,
        using a prior cardinality estimate (supplied per count, else a
        bootstrap fixed-``lim`` pass) — the adaptive variant section 4.1
        sketches for small-cardinality sets.
    lim_target_p:
        Per-interval success probability the eq6 policy aims for.
    replication:
        The paper's ``R``: number of successor replicas per set bit
        (0 disables replication).
    read_repair:
        When true (and ``replication > 0``), a counting probe that finds
        a set bit re-writes it onto successor replicas that lost their
        copy (crash, amnesia rejoin).  Each repaired replica costs one
        hop and the tuple bytes, charged to the count (see
        docs/ROBUSTNESS.md).
    bit_shift:
        The paper's ``b`` (section 3.5): the first ``b`` bit positions
        are assumed set and never stored, so position ``r`` maps to the
        (2^b-times larger) interval of position ``r - b``.  Only sound
        when measured cardinalities exceed ``2^b`` per bitmap.
    ttl:
        Soft-state lifetime of a stored bit in logical time units;
        ``None`` disables expiry.
    hash_seed:
        Seed of the item-hash family (pseudo-uniform hash ``h``).
    hash_family_name:
        ``"mixer"`` (splitmix64, default) or ``"md4"`` — the paper's own
        evaluation hash, byte-compatible with RFC 1320.
    store:
        Node-store backend.  ``"array"`` (default) keeps immortal bitmap
        masks in one contiguous :class:`~repro.core.regstore.RegArena`
        row per ``(metric, bit)`` slot, for vectorized bulk writes;
        probes read the node's derived ``read_rows`` on either backend.
        ``"packed"`` is the plain per-object :class:`PackedSlot`
        reference backend; both store bit-identical logical state (see
        tests/core/test_regstore.py).
    """

    key_bits: int = 24
    num_bitmaps: int = 512
    estimator: str = "sll"
    lim: int = DEFAULT_LIM
    lim_policy: str = "fixed"
    lim_target_p: float = 0.99
    replication: int = 0
    read_repair: bool = False
    bit_shift: int = 0
    ttl: Optional[int] = None
    hash_seed: int = 0
    hash_family_name: str = "mixer"
    store: str = "array"
    size_model: SizeModel = field(default_factory=SizeModel)

    def __post_init__(self) -> None:
        if self.num_bitmaps < 1 or self.num_bitmaps & (self.num_bitmaps - 1):
            raise ConfigurationError(
                f"num_bitmaps must be a positive power of two, got {self.num_bitmaps}"
            )
        if self.estimator not in SKETCH_TYPES:
            raise ConfigurationError(
                f"unknown estimator {self.estimator!r}; choose from {sorted(SKETCH_TYPES)}"
            )
        if self.key_bits <= self.selector_bits:
            raise ConfigurationError(
                f"key_bits ({self.key_bits}) must exceed log2(num_bitmaps) "
                f"({self.selector_bits})"
            )
        if self.lim < 1:
            raise ConfigurationError(f"lim must be >= 1, got {self.lim}")
        if self.lim_policy not in ("fixed", "eq6"):
            raise ConfigurationError(
                f"lim_policy must be 'fixed' or 'eq6', got {self.lim_policy!r}"
            )
        if not 0 < self.lim_target_p < 1:
            raise ConfigurationError(
                f"lim_target_p must be in (0, 1), got {self.lim_target_p}"
            )
        if self.replication < 0:
            raise ConfigurationError(f"replication must be >= 0, got {self.replication}")
        if self.read_repair and self.replication < 1:
            raise ConfigurationError(
                "read_repair needs replication >= 1 (there is nothing to repair)"
            )
        if not 0 <= self.bit_shift < self.position_bits:
            raise ConfigurationError(
                f"bit_shift must be in [0, position_bits={self.position_bits}), "
                f"got {self.bit_shift}"
            )
        if self.ttl is not None and self.ttl < 1:
            raise ConfigurationError(f"ttl must be >= 1 or None, got {self.ttl}")
        if self.hash_family_name not in ("mixer", "md4"):
            raise ConfigurationError(
                f"hash_family_name must be 'mixer' or 'md4', "
                f"got {self.hash_family_name!r}"
            )
        if self.store not in ("array", "packed"):
            raise ConfigurationError(
                f"store must be 'array' or 'packed', got {self.store!r}"
            )

    @property
    def selector_bits(self) -> int:
        """``c = log2(m)``: low-order key bits selecting the bitmap."""
        return self.num_bitmaps.bit_length() - 1

    @property
    def position_bits(self) -> int:
        """Usable bit positions per bitmap (``k - c``)."""
        return self.key_bits - self.selector_bits

    @property
    def max_supported_cardinality(self) -> int:
        """Largest cardinality eq. 3 sanctions for this (k, m).

        Inverting ``H0 = log m + ceil(log(n/m) + 3)``:
        ``n_max = m * 2^(position_bits - 3)``.  Counting beyond this
        saturates bitmaps and biases estimates low (the paper's own
        evaluation config exceeds it for relation T — see
        EXPERIMENTS.md).
        """
        return self.num_bitmaps * (1 << max(0, self.position_bits - 3))

    def hash_family(self, bits: int) -> HashFamily:
        """The item-hash family for an overlay with ``bits``-bit ids."""
        if self.hash_family_name == "md4":
            return MD4Hash(bits=max(64, bits), seed=self.hash_seed)
        return default_hash_family(bits=max(64, bits), seed=self.hash_seed)

    def sketch_class(self) -> type[HashSketch]:
        """The estimator class backing this configuration."""
        return SKETCH_TYPES[self.estimator]

    def make_sketch(self, hash_family: HashFamily) -> HashSketch:
        """An empty local sketch with this configuration's parameters."""
        return self.sketch_class()(
            m=self.num_bitmaps, key_bits=self.key_bits, hash_family=hash_family
        )

    def expiry(self, now: int) -> Optional[int]:
        """Expiry timestamp of a bit written at ``now`` (None = never)."""
        if self.ttl is None:
            return None
        return now + self.ttl
