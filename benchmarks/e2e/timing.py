"""The one timing primitive of the end-to-end benchmark.

Everything the benchmark times goes through this module:

* :class:`Clock` wraps each call the driver makes into the program in a
  ``perf_counter_ns`` span.  An op's *busy* time is the sum of the call
  spans inside it, so the time the generator spends between calls is
  never charged to the program.  Spans are always timed; they are only
  *kept* (name, start, end, parent, op id) while ``keep`` is on, which
  is what the traced run switches.
* :func:`percentile` is the nearest-rank percentile, returned with the
  sample count it was taken over.
* :func:`calibration_kernel` / :func:`calibrate` measure the host's
  speed next to the ops and divide it out, which is what makes times
  repeat on a shared host.
* :func:`gc_shield` collects, then disables, the garbage collector
  around a measured phase.
* :func:`ladder_ns` times one function in isolation with an auto-scaled
  iteration count and reports the median of several repeats.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from bisect import bisect_left as _bisect_left
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    """One kept span; ``parent`` indexes the span list (-1 = root)."""

    name: str
    start: int
    end: int
    parent: int
    op: int


_OPEN = Span("", 0, 0, -1, -1)


class _SpanContext:
    """Context manager for one span (class-based: ~3x cheaper than a
    generator-based one, and the clock reads sit innermost)."""

    __slots__ = ("clock", "name", "index", "start")

    def __init__(self, clock: "Clock", name: str) -> None:
        self.clock = clock
        self.name = name

    def __enter__(self) -> "_SpanContext":
        clock = self.clock
        self.index = -1
        if clock.keep:
            self.index = len(clock.spans)
            clock.spans.append(_OPEN)  # reserves the index; replaced on exit
            clock._stack.append(self.index)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end = perf_counter_ns()
        clock = self.clock
        duration = end - self.start
        if clock._in_op:
            clock._op_busy += duration
        name = self.name
        clock.busy_ns[name] = clock.busy_ns.get(name, 0) + duration
        clock.calls[name] = clock.calls.get(name, 0) + 1
        if self.index >= 0:
            stack = clock._stack
            stack.pop()
            clock.spans[self.index] = Span(
                name, self.start, end, stack[-1] if stack else -1, clock._op
            )


class Clock:
    """Times the calls the benchmark driver makes into the program."""

    def __init__(self) -> None:
        #: Whether spans are kept (the traced run) or only summed.
        self.keep = False
        self.spans: List[Span] = []
        #: Total time and call count per span name, kept or not.
        self.busy_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []
        self._in_op = False
        self._op = -1
        self._op_busy = 0
        self._op_span: Optional[_SpanContext] = None

    def span(self, name: str) -> _SpanContext:
        """``with clock.span("dhs.count"): ...`` — one call into the program."""
        return _SpanContext(self, name)

    def begin_op(self, op: int) -> None:
        """Open op ``op``: call spans until :meth:`end_op` are charged to it."""
        self._op = op
        self._op_busy = 0
        if self.keep:
            self._op_span = _SpanContext(self, "op")
            self._op_span.__enter__()
        self._in_op = True

    def end_op(self) -> int:
        """Close the op; returns its busy time (sum of its call spans), ns."""
        self._in_op = False
        if self._op_span is not None:
            self._op_span.__exit__()
            self._op_span = None
        self._op = -1
        return self._op_busy

    def take_totals(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Hand over ``(busy_ns, calls)`` so far and start both afresh, so
        set-up and the measured phase are totalled apart."""
        totals = (self.busy_ns, self.calls)
        self.busy_ns = {}
        self.calls = {}
        return totals

    def write_jsonl(self, path: str) -> None:
        """One JSON object per kept span."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the time its child spans cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) and the sample count."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered)


#: Time of :func:`calibration_kernel` on the sizing host (2-core VM,
#: Python 3.11) in its quiet state; fixes the scale of calibrated times.
KERNEL_QUIET_NS = 135_000.0

_KERNEL_TABLE = list(range(0, 4096, 3))
_KERNEL_DICT = {n: n for n in range(512)}


def calibration_kernel() -> int:
    """A fixed piece of interpreter work, independent of the program.

    A shared host slows everything it runs by a factor that drifts over
    seconds (1.0-1.7x on the sizing host).  Timing this kernel next to
    the ops measures that factor; dividing by it gives times that repeat
    between runs.  The mix (dict reads, small-int arithmetic, list
    appends, C bisects, 512-bit integer masks) is the program's own.
    """
    acc = 0
    out = []
    for n in range(300):
        acc += _KERNEL_DICT[n & 511] ^ (acc >> 3)
        out.append(_bisect_left(_KERNEL_TABLE, (acc * 7) & 4095))
    mask = (1 << 512) - 1
    for n in range(40):
        mask &= ~(1 << (n * 11 % 512))
        acc += mask.bit_count()
    return acc


def kernel_ns(runs: int = 1) -> float:
    """Median time of ``runs`` back-to-back calibration kernels, ns."""
    samples = []
    for _ in range(runs):
        start = perf_counter_ns()
        calibration_kernel()
        samples.append(perf_counter_ns() - start)
    return statistics.median(samples)


def calibrate(
    samples: Sequence[float],
    marks: Sequence[int],
    kernel: Sequence[float],
    group: int = 9,
) -> List[float]:
    """Divide each op time by the host-speed factor measured around it.

    ``kernel[j]`` is a calibration-kernel time (ns) taken after
    ``marks[j]`` ops had run.  Consecutive kernel samples are grouped
    ``group`` at a time; the ops that ran while a group was collected
    are divided by ``median(group) / KERNEL_QUIET_NS``.
    """
    if not kernel:
        raise ValueError("no calibration samples")
    groups = max(1, len(kernel) // group)
    out: List[float] = []
    start = 0
    for g in range(groups):
        last = g == groups - 1
        chunk = kernel[g * group :] if last else kernel[g * group : (g + 1) * group]
        end = len(samples) if last else marks[(g + 1) * group - 1]
        factor = statistics.median(chunk) / KERNEL_QUIET_NS
        out.extend(sample / factor for sample in samples[start:end])
        start = end
    return out


@contextmanager
def gc_shield() -> Iterator[None]:
    """Collect now, then keep the collector off for the measured phase."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def ladder_ns(
    fn: Callable[[], Any],
    calls_per_iteration: int = 1,
    min_seconds: float = 0.03,
    repeats: int = 3,
) -> float:
    """Median calibrated ns per call of ``fn`` timed in isolation.

    ``fn`` performs ``calls_per_iteration`` calls of the layer function
    per invocation (a replayed input batch).  The iteration count doubles
    until one repeat lasts ``min_seconds``; the result is the median of
    ``repeats`` such repeats, divided by the host-speed factor measured
    just before and after.
    """
    iterations = 1
    with gc_shield():
        before = kernel_ns(16)
        while True:
            start = perf_counter_ns()
            for _ in range(iterations):
                fn()
            elapsed = perf_counter_ns() - start
            if elapsed >= min_seconds * 1e9:
                break
            iterations *= 2
        samples = [elapsed]
        for _ in range(repeats - 1):
            start = perf_counter_ns()
            for _ in range(iterations):
                fn()
            samples.append(perf_counter_ns() - start)
        factor = (before + kernel_ns(16)) / 2 / KERNEL_QUIET_NS
    return statistics.median(samples) / (iterations * calls_per_iteration) / factor
