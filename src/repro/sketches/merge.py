"""Union over a collection of sketches.

Duplicate-insensitive distributed counting hinges on sketch union being
exactly the sketch of the set union; :func:`union_all` makes the common
"combine per-node sketches" pattern a one-liner and is reused by the
convergecast baseline.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

from repro.errors import SketchError
from repro.sketches.base import HashSketch

__all__ = ["union_all"]

S = TypeVar("S", bound=HashSketch)


def union_all(sketches: Iterable[S]) -> S:
    """Union an iterable of compatible sketches into a new sketch."""
    iterator = iter(sketches)
    try:
        first = next(iterator)
    except StopIteration:
        raise SketchError("union_all requires at least one sketch") from None
    result = first.copy()
    for sketch in iterator:
        result.merge(sketch)
    return result


