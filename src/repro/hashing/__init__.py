"""Hashing substrate: bit utilities, MD4, fast mixers, hash families."""

from repro.hashing.bits import bit, lsb, mask, rank, rho
from repro.hashing.family import HashFamily, MD4Hash, MixerHash, default_hash_family
from repro.hashing.md4 import MD4, md4_digest, md4_hexdigest, md4_int
from repro.hashing.mixers import mix_with_seed, splitmix64

__all__ = [
    "bit",
    "lsb",
    "mask",
    "rank",
    "rho",
    "HashFamily",
    "MD4Hash",
    "MixerHash",
    "default_hash_family",
    "MD4",
    "md4_digest",
    "md4_hexdigest",
    "md4_int",
    "mix_with_seed",
    "splitmix64",
]
