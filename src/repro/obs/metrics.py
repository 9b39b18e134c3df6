"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The paper's evaluation is built from a handful of aggregate numbers —
hops per lookup, probes per interval, bytes and bits touched, per-node
access load — that today are scraped per-experiment.  A
:class:`MetricsRegistry` makes them first-class: O(1) ``inc`` /
``set_gauge`` / ``observe`` on the hot paths, and a :meth:`snapshot`
that is a plain, deterministically-ordered dict suitable for JSON
export and bit-for-bit comparison.

Determinism contract (see docs/OBSERVABILITY.md):

* counters and histogram buckets are integers (or exact float sums
  merged in a fixed order), so snapshots are reproducible;
* under ``DHS_JOBS`` parallelism every trial runs against a fresh
  registry and :func:`repro.sim.parallel.run_trials` merges the
  per-trial snapshots **in spec order** — the serial path uses the same
  capture-and-merge sequence, so ``snapshot()`` is bit-identical at any
  worker count;
* ``reset()`` clears every value, so experiment cells sharing a
  process cannot cross-contaminate (per-node load lives on the overlay's
  :class:`~repro.overlay.stats.LoadTracker`, and every cell builds its
  own deployment).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Sequence, Tuple, Union

__all__ = [
    "BUCKETS_HOPS",
    "BUCKETS_PROBES",
    "BUCKETS_BITS",
    "BUCKETS_SEGMENTS",
    "GAUGE_RING_BUILD_SECONDS",
    "GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE",
    "GAUGE_RING_NODE_HEAP_BYTES",
    "GAUGE_RING_PEAK_RSS_BYTES",
    "METRIC_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Snapshot",
]

#: A snapshot is plain JSON-ready data (see :meth:`MetricsRegistry.snapshot`).
Snapshot = Dict[str, Dict[str, Union[float, Dict[str, Union[float, List[int], List[float]]]]]]

#: Default bucket upper bounds for hop-count histograms (last bucket is
#: the +inf overflow).  Chord lookups on the evaluated rings run a few
#: to a few dozen hops; the exponential ladder keeps tails visible.
BUCKETS_HOPS: Tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)

#: Buckets for per-interval probe counts (``lim`` is 5 in the paper;
#: the eq. 6 adaptive policy can push budgets higher).
BUCKETS_PROBES: Tuple[float, ...] = (0, 1, 2, 3, 4, 5, 8, 12, 20, 40)

#: Buckets for per-probe set-bit counts (``bits touched``).
BUCKETS_BITS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Buckets for anti-entropy segment counts per reconciliation (a node
#: root covers one segment per stored interval, ~L - b of them).
BUCKETS_SEGMENTS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

#: The metric catalogue: histogram names -> default bucket bounds.
#: Counters and gauges need no pre-declaration; histograms observed via
#: :meth:`MetricsRegistry.observe` fall back to these bounds.
METRIC_BUCKETS: Mapping[str, Tuple[float, ...]] = {
    "dhs.lookup.hops": BUCKETS_HOPS,
    "dhs.count.probes_per_interval": BUCKETS_PROBES,
    "dhs.count.bits_touched": BUCKETS_BITS,
    "dhs.insert.store_hops": BUCKETS_HOPS,
    "dhs.antientropy.segments_mismatched": BUCKETS_SEGMENTS,
}

#: Fallback bounds for histograms not in the catalogue.
_DEFAULT_BUCKETS: Tuple[float, ...] = BUCKETS_HOPS

# ----------------------------------------------------------------------
# Scale-tier gauge names (ring-construction instrumentation).
#
# ``membership_bytes_per_node`` is a pure function of the deployment and
# may be set from experiment trial cells.  ``build_seconds`` and
# ``peak_rss_bytes`` carry wall-clock / process state and MUST only be
# set by benchmarks and scale-tier tests — never inside a trial cell,
# where they would break the DHS_JOBS bit-identity contract.
# ----------------------------------------------------------------------

#: Wall-clock seconds to construct the overlay (benchmarks/tests only).
GAUGE_RING_BUILD_SECONDS = "dhs.ring.build_seconds"

#: Bytes of membership state per live node (deterministic).
GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE = "dhs.ring.membership_bytes_per_node"

#: tracemalloc-measured heap bytes per node for a reference ring build
#: (memory-regression test only).
GAUGE_RING_NODE_HEAP_BYTES = "dhs.ring.node_heap_bytes"

#: Peak resident set size observed around a ring build (benchmarks/tests
#: only; 0.0 where the platform cannot report it).
GAUGE_RING_PEAK_RSS_BYTES = "dhs.ring.peak_rss_bytes"


class Histogram:
    """Fixed-bucket histogram with O(log buckets) record.

    ``bounds`` are inclusive upper edges; one extra overflow bucket
    catches values above the last bound.  ``sum``/``count`` track the
    exact totals (sums of integral observations stay exact in floats up
    to 2**53, far beyond any hop count this simulator produces).
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be sorted and unique: {bounds!r}")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        # Inclusive upper edges: bucket i is the smallest bound >= value,
        # anything above the last edge lands in the overflow bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Union[float, List[int], List[float]]]:
        """Plain-data form used by snapshots (bounds, counts, sum, count)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def merge_dict(self, data: Mapping[str, Union[float, List[int], List[float]]]) -> None:
        """Accumulate a snapshot produced by a same-bounds histogram."""
        bounds = data["bounds"]
        if not isinstance(bounds, list) or tuple(bounds) != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {bounds!r} vs {self.bounds!r}"
            )
        counts = data["counts"]
        assert isinstance(counts, list)
        for index, amount in enumerate(counts):
            self.counts[index] += int(amount)
        total = data["sum"]
        observations = data["count"]
        assert isinstance(total, (int, float)) and isinstance(observations, (int, float))
        self.total += total
        self.count += int(observations)

    def reset(self) -> None:
        """Zero every bucket and total (bounds are kept)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0


class MetricsRegistry:
    """Named counters, gauges, and histograms for one process (or trial).

    All record operations are O(1) dict work; nothing allocates per
    event beyond first use of a name.  Hot paths guard on
    ``repro.obs.runtime.METERING`` so a disabled registry costs one
    module-attribute read per operation.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``.

        Bucket bounds come from :data:`METRIC_BUCKETS` (or the hop
        ladder for unknown names); use :meth:`histogram` first to pin
        custom bounds.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self.histogram(name)
        # Inlined Histogram.observe: this method sits on the lookup /
        # probe hot paths, where the extra call level is measurable.
        hist.counts[bisect_left(hist.bounds, value)] += 1
        hist.total += value
        hist.count += 1

    def histogram(self, name: str, bounds: Sequence[float] | None = None) -> Histogram:
        """Get (or create with ``bounds``) the histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            if bounds is None:
                bounds = METRIC_BUCKETS.get(name, _DEFAULT_BUCKETS)
            hist = Histogram(bounds)
            self._histograms[name] = hist
        elif bounds is not None and tuple(float(b) for b in bounds) != hist.bounds:
            raise ValueError(f"histogram {name!r} already exists with other bounds")
        return hist

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never written)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        """Current value of gauge ``name`` (0.0 when never written)."""
        return self._gauges.get(name, 0.0)

    def snapshot(self) -> Snapshot:
        """Deterministic plain-data view of everything recorded.

        Keys are sorted, values are scalars/lists only — two registries
        that saw the same events (in any interleaving, merged in the
        same order) produce equal snapshots, which is what the
        ``DHS_JOBS`` bit-identity gate compares.
        """
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    # ------------------------------------------------------------------
    # Merging (spec-order parallel aggregation) and lifecycle.
    # ------------------------------------------------------------------
    def merge_snapshot(self, snapshot: Snapshot) -> None:
        """Accumulate another registry's snapshot into this one.

        Counters and histogram buckets add; gauges overwrite (last
        merge wins) — so merging per-trial snapshots in spec order
        reproduces exactly what a serial run recording into one registry
        through the same capture sequence would hold.
        """
        counters = snapshot.get("counters", {})
        for name in sorted(counters):
            value = counters[name]
            assert isinstance(value, (int, float))
            self._counters[name] = self._counters.get(name, 0) + value
        gauges = snapshot.get("gauges", {})
        for name in sorted(gauges):
            value = gauges[name]
            assert isinstance(value, (int, float))
            self._gauges[name] = value
        histograms = snapshot.get("histograms", {})
        for name in sorted(histograms):
            data = histograms[name]
            assert isinstance(data, dict)
            bounds = data["bounds"]
            assert isinstance(bounds, list)
            self.histogram(name, bounds=bounds).merge_dict(data)

    def reset(self) -> None:
        """Zero all values (histogram bounds survive)."""
        self._counters.clear()
        self._gauges.clear()
        for hist in self._histograms.values():
            hist.reset()

    def is_empty(self) -> bool:
        """Whether nothing has been recorded since creation/reset."""
        return (
            not self._counters
            and not self._gauges
            and all(h.count == 0 for h in self._histograms.values())
        )
