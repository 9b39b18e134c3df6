"""Spans: the trace unit of the observability layer.

A :class:`Span` is one named operation — a distributed count, one
interval's probe walk, a DHT lookup, an insert store — annotated with
attributes (hop counts, probe counts, drops...) and ordered by a
process-local sequence number.  Time is the *simulator's logical clock*
(the ``now`` tick every DHS operation already carries); there is no
wall-clock anywhere, so a fixed-seed run produces a byte-identical trace
(dhslint DHS102/DHS601 enforce the no-wall-clock invariant repo-wide).

The :class:`Tracer` maintains the active-span stack and assigns
parent/child links; :class:`NullTracer` is the always-installed default
whose methods all no-op, keeping the instrumented hot paths zero-cost
when tracing is off (callers additionally guard on
``repro.obs.runtime.TRACING`` so the common case never even touches the
tracer object — see docs/OBSERVABILITY.md for the full contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import TracebackType
from typing import (
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
    cast,
)

__all__ = ["AttrValue", "Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: Span attribute values: JSON-stable scalars only (no containers), so
#: the JSONL export is byte-identical across runs and Python versions.
AttrValue = Union[int, float, str, bool]

#: Deferred point event: (name, parent_id, tick, attrs).  ``span_id`` and
#: ``seq`` are derived from the entry index at materialization time (the
#: tracer assigns ids densely in start order, so ``span_id == seq + 1``).
_RawEvent = Tuple[str, Optional[int], int, Dict[str, AttrValue]]


@dataclass(slots=True)
class Span:
    """One traced operation.

    ``seq`` is the start-order index assigned by the tracer (the trace's
    total order); ``tick`` is the logical-clock time the operation ran
    at.  ``parent_id`` is the ``span_id`` of the enclosing span, or
    ``None`` for a root.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    tick: int
    seq: int
    #: Whether this is a point event (no duration) rather than a scope.
    event: bool = False
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    def set(self, **attrs: AttrValue) -> "Span":
        """Set (overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    def add(self, **attrs: AttrValue) -> "Span":
        """Increment numeric attributes (missing keys start at 0)."""
        for key, amount in attrs.items():
            current = self.attrs.get(key, 0)
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise TypeError(
                    f"span attribute {key!r} is not numeric: {current!r}"
                )
            if not isinstance(amount, (int, float)) or isinstance(amount, bool):
                raise TypeError(f"span increment {key!r} is not numeric: {amount!r}")
            self.attrs[key] = current + amount
        return self


class _SpanScope:
    """Context manager closing one span on exit (LIFO-checked)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._tracer.end(self.span)


class Tracer:
    """Collects spans for one run into an in-memory list.

    Spans are recorded in *start* order, which — together with the
    logical-clock ticks and the absence of threads in the simulator —
    makes the trace a deterministic function of the seed.  The tracer is
    process-local: under ``DHS_JOBS`` parallelism each worker would
    collect its own spans, so traced runs (the golden-trace test, the
    ``repro trace`` CLI) run serially by convention.
    """

    def __init__(self) -> None:
        #: Scope spans (live objects) interleaved with *deferred* point
        #: events, stored as plain tuples until someone reads ``spans``.
        #: Events are immutable after recording, so materializing them
        #: lazily is safe — and keeps the per-event hot-path cost at a
        #: tuple append instead of an object construction.
        self._entries: List[Union[Span, _RawEvent]] = []
        self._pending = False
        self._stack: List[Span] = []

    @property
    def spans(self) -> List[Span]:
        """All recorded spans in start order (materializing deferred events)."""
        if self._pending:
            entries = self._entries
            for index, entry in enumerate(entries):
                if type(entry) is tuple:
                    span: Span = Span.__new__(Span)
                    span.name, span.parent_id, span.tick, span.attrs = entry
                    span.span_id = index + 1
                    span.seq = index
                    span.event = True
                    entries[index] = span
            self._pending = False
        return cast(List[Span], self._entries)

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def start(self, name: str, tick: int = 0, **attrs: AttrValue) -> Span:
        """Open a span as a child of the current span (if any)."""
        stack = self._stack
        entries = self._entries
        # Hand-rolled construction (no __init__ call) and attrs adopted
        # from the ** call syntax without a copy: span starts sit on the
        # count/insert hot paths, so every avoidable call matters here.
        span: Span = Span.__new__(Span)
        span.name = name
        span.seq = len(entries)
        span.span_id = span.seq + 1
        span.parent_id = stack[-1].span_id if stack else None
        span.tick = tick
        span.event = False
        span.attrs = attrs
        entries.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``; spans must close LIFO (enforced)."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()

    def span(self, name: str, tick: int = 0, **attrs: AttrValue) -> ContextManager[Span]:
        """``with tracer.span(...) as sp:`` — start + guaranteed end."""
        return _SpanScope(self, self.start(name, tick=tick, **attrs))

    def event(self, name: str, tick: int = 0, **attrs: AttrValue) -> None:
        """Record a point event under the current span.

        Deferred: the event is stored as a tuple and only becomes a
        :class:`Span` when :attr:`spans` is read.  Returns ``None`` —
        point events are write-only at the recording site.
        """
        stack = self._stack
        self._entries.append(
            (name, stack[-1].span_id if stack else None, tick, attrs)
        )
        self._pending = True

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    def roots(self) -> Iterator[Span]:
        """Top-level spans, in start order."""
        return (span for span in self.spans if span.parent_id is None)

    def children(self, span: Span) -> Iterator[Span]:
        """Direct children of ``span``, in start order."""
        return (s for s in self.spans if s.parent_id == span.span_id)

    def find(self, name: str) -> List[Span]:
        """Every span named ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        """Drop all recorded spans (open stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self._entries.clear()
        self._pending = False


class _NullScope:
    """No-op span scope returned by :class:`NullTracer`."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


class NullTracer(Tracer):
    """A tracer that records nothing (the zero-cost default).

    Every recording method returns the same dummy span, so code written
    against the :class:`Tracer` API runs unchanged — but hot paths
    should still guard on ``repro.obs.runtime.TRACING`` and skip the
    call entirely.
    """

    def __init__(self) -> None:
        super().__init__()
        self._dummy = Span(name="", span_id=0, parent_id=None, tick=0, seq=0)
        self._null_scope = _NullScope(self._dummy)

    def start(self, name: str, tick: int = 0, **attrs: AttrValue) -> Span:
        return self._dummy

    def end(self, span: Span) -> None:
        return None

    def span(self, name: str, tick: int = 0, **attrs: AttrValue) -> ContextManager[Span]:
        return self._null_scope

    def event(self, name: str, tick: int = 0, **attrs: AttrValue) -> None:
        return None


#: The process-wide default tracer (never records anything).
NULL_TRACER = NullTracer()
