"""Fast 64-bit integer mixers used as pseudo-uniform hash functions.

Hash sketches only require a hash whose output bits are individually
unbiased and jointly well mixed; ``splitmix64`` (Steele, Lea & Flood 2014)
passes this bar and is orders of magnitude faster in pure Python than a
full digest such as MD4.
"""

from __future__ import annotations

__all__ = ["splitmix64", "mix_with_seed"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """One round of the splitmix64 output function.

    Bijective on 64-bit integers, so distinct inputs never collide — a
    convenient property when hashing already-unique item identifiers.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_with_seed(x: int, seed: int) -> int:
    """Mix ``x`` under ``seed``, giving an indexed family of 64-bit hashes.

    Two rounds keep the avalanche strong even when seeds differ in a single
    bit.  Not bijective across seeds (only within one seed), which is all a
    hash *family* needs.
    """
    return splitmix64(splitmix64(x ^ splitmix64(seed)))
