"""super-LogLog counting (Durand–Flajolet 2003).

Each bucket retains only the *largest* observation — the rank
``rho + 1`` of the rightmost 1-bit the paper speaks of — so a bucket costs
``O(log log n_max)`` bits instead of PCSA's ``O(log n_max)``.  The
estimate applies the truncation rule (keep the ``m0 = ⌊θ0·m⌋`` smallest
registers, θ0 = 0.7) with the calibrated ``alpha-tilde`` constant — the
paper's eq. 2, standard error ``≈ 1.05/sqrt(m)``.
"""

from __future__ import annotations

from typing import List

from repro.errors import EstimationError
from repro.hashing.family import HashFamily
from repro.sketches.base import HashSketch
from repro.sketches.estimators import register_rank_histogram, superloglog_estimate

__all__ = ["SuperLogLogSketch"]


class SuperLogLogSketch(HashSketch):
    """super-LogLog: max-rank registers and the θ0-truncation rule (paper eq. 2).

    Registers store the 1-indexed rank ``M = rho + 1``; an empty bucket
    holds 0.
    """

    name = "sll"

    def __init__(
        self,
        m: int = 64,
        key_bits: int = 64,
        hash_family: HashFamily | None = None,
    ) -> None:
        super().__init__(m=m, key_bits=key_bits, hash_family=hash_family)
        self._registers: List[int] = [0] * self.m

    # ------------------------------------------------------------------
    # HashSketch state hooks.
    # ------------------------------------------------------------------
    def record(self, vector: int, position: int) -> None:
        if not 0 <= vector < self.m:
            raise ValueError(f"vector {vector} out of range [0, {self.m})")
        rank = min(position, self.position_bits - 1) + 1
        if rank > self._registers[vector]:
            self._registers[vector] = rank

    def record_mask(self, vectors: int, position: int) -> None:
        if vectors < 0 or vectors >> self.m:
            raise ValueError(f"vector mask {vectors:#x} out of range [0, 2^{self.m})")
        rank = min(position, self.position_bits - 1) + 1
        registers = self._registers
        while vectors:
            low = vectors & -vectors
            vector = low.bit_length() - 1
            if rank > registers[vector]:
                registers[vector] = rank
            vectors ^= low

    def is_empty(self) -> bool:
        return all(r == 0 for r in self._registers)

    def _merge_state(self, other: HashSketch) -> None:
        assert isinstance(other, SuperLogLogSketch)
        self._registers = [max(a, b) for a, b in zip(self._registers, other._registers)]

    def _copy_empty(self) -> "SuperLogLogSketch":
        return type(self)(m=self.m, key_bits=self.key_bits, hash_family=self.hash_family)

    # ------------------------------------------------------------------
    # Estimation.
    # ------------------------------------------------------------------
    def registers(self) -> List[int]:
        """A copy of the per-bucket max ranks (0 = bucket never hit)."""
        return list(self._registers)

    def estimate(self) -> float:
        return superloglog_estimate(register_rank_histogram(self._registers), self.m)

    @classmethod
    def expected_std_error(cls, m: int) -> float:
        """DF03 (and the paper, section 2.2.1): ``1.05 / sqrt(m)``."""
        if m < 1:
            raise EstimationError(f"m must be >= 1, got {m}")
        return 1.05 / m**0.5

    # ------------------------------------------------------------------
    # Serialization: one byte per register (ranks fit in 8 bits for any
    # 64-bit hash, the log log n economy the paper cites).
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize registers, one byte each."""
        return bytes(self._registers)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        m: int,
        key_bits: int = 64,
        hash_family: HashFamily | None = None,
    ) -> "SuperLogLogSketch":
        """Rebuild a sketch serialized by :meth:`to_bytes`."""
        sketch = cls(m=m, key_bits=key_bits, hash_family=hash_family)
        if len(data) != m:
            raise ValueError(f"expected {m} register bytes, got {len(data)}")
        max_rank = sketch.position_bits + 1
        registers = list(data)
        if any(r > max_rank for r in registers):
            raise ValueError("register value exceeds position_bits + 1")
        sketch._registers = registers
        return sketch

