"""Deterministic randomness management.

Every stochastic component in the library draws from a ``random.Random``
obtained through :func:`rng_for`, so a single master seed reproduces an
entire experiment bit-for-bit.  Sub-streams are labelled with strings
(``rng_for(seed, "overlay", "join")``), which keeps independent components
statistically decoupled without manual seed bookkeeping.
"""

from __future__ import annotations

import random

from repro.hashing.mixers import mix_with_seed

__all__ = ["derive_seed", "rng_for"]

_LABEL_SALT = 0x5DEECE66D


def derive_seed(master: int, *labels: object) -> int:
    """Derive a 64-bit sub-seed from ``master`` and a label path.

    Labels may be strings or integers; the derivation is stable across
    processes and Python versions (no reliance on ``hash()``).
    """
    state = mix_with_seed(master, _LABEL_SALT)
    for label in labels:
        if isinstance(label, int):
            piece = label
        elif isinstance(label, str):
            piece = 0
            for ch in label:
                piece = (piece * 131 + ord(ch)) & 0xFFFFFFFFFFFFFFFF
        else:
            raise TypeError(f"seed labels must be str or int, got {type(label).__name__}")
        state = mix_with_seed(state ^ piece, _LABEL_SALT)
    return state


def rng_for(master: int, *labels: object) -> random.Random:
    """Return a ``random.Random`` seeded for the given label path."""
    return random.Random(derive_seed(master, *labels))


