"""The observability on/off switch the hot paths guard on.

Instrumented code never calls the tracer or registry unconditionally; it
reads two module-level flags first::

    from repro.obs import runtime as obs

    if obs.TRACING:
        with obs.TRACER.span("dhs.count", tick=now):
            ...
    if obs.METERING:
        obs.METRICS.observe("dhs.lookup.hops", hops)

Both flags default to ``False`` and the default tracer is the no-op
:data:`~repro.obs.span.NULL_TRACER`, so the disabled-mode cost of an
instrumented hot path is one module-attribute read per guard.  What
the enabled mode costs a count is budgeted in one place, the ``scale``
test tier (``tests/scale/test_scale_smoke.py``; see
docs/OBSERVABILITY.md).

State changes go through :func:`enable` / :func:`disable` or the
:func:`observed` context manager; the latter restores the previous state
on exit, which is what keeps test isolation trivial.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import NULL_TRACER, Tracer

__all__ = [
    "TRACING",
    "METERING",
    "TRACER",
    "METRICS",
    "enable",
    "disable",
    "observed",
]

#: Whether span recording is active (hot-path guard).
TRACING: bool = False
#: Whether metric recording is active (hot-path guard).
METERING: bool = False
#: The active tracer (the no-op singleton when tracing is off).
TRACER: Tracer = NULL_TRACER
#: The active metrics registry.  Always a real registry so direct reads
#: (``obs.METRICS.counter(...)``) work even when metering is off.
METRICS: MetricsRegistry = MetricsRegistry()


def enable(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    *,
    tracing: bool = True,
    metering: bool = True,
) -> Tuple[Tracer, MetricsRegistry]:
    """Turn observability on; returns the active (tracer, registry).

    Passing no tracer installs a fresh recording :class:`Tracer`;
    passing no registry keeps the current one.  ``tracing=False`` /
    ``metering=False`` enable only one half.
    """
    global TRACING, METERING, TRACER, METRICS
    if tracing:
        TRACER = tracer if tracer is not None else Tracer()
        TRACING = True
    if metering:
        if registry is not None:
            METRICS = registry
        METERING = True
    return TRACER, METRICS


def disable() -> None:
    """Turn all observability off and drop back to the no-op tracer."""
    global TRACING, METERING, TRACER
    TRACING = False
    METERING = False
    TRACER = NULL_TRACER


@contextmanager
def observed(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    *,
    tracing: bool = True,
    metering: bool = True,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Scoped :func:`enable` that restores the previous state on exit."""
    global TRACING, METERING, TRACER, METRICS
    saved = (TRACING, METERING, TRACER, METRICS)
    try:
        yield enable(tracer, registry, tracing=tracing, metering=metering)
    finally:
        TRACING, METERING, TRACER, METRICS = saved
