"""Building and reconstructing histograms over DHS (paper section 4.3).

Each bucket becomes its own DHS metric (``(relation, "hist", i)``); nodes
record every tuple they store under the metric of the bucket its
attribute value falls in.  Reconstructing the whole histogram is then a
single multi-metric DHS count: hop cost equal to counting *one* metric,
bytes scaling with the bucket count — the property Table 3 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.core.count import CountResult
from repro.core.dhs import DistributedHashSketch
from repro.histograms.buckets import BucketSpec
from repro.histograms.histogram import Histogram
from repro.overlay.stats import OpCost

__all__ = ["DHSHistogramBuilder", "HistogramReconstruction"]


@dataclass
class HistogramReconstruction:
    """A reconstructed histogram together with its retrieval cost."""

    histogram: Histogram
    count_result: CountResult

    @property
    def cost(self) -> OpCost:
        """Hops/bytes spent reconstructing."""
        return self.count_result.cost


class DHSHistogramBuilder:
    """Maintains one relation's histogram inside a DHS deployment."""

    def __init__(
        self,
        dhs: DistributedHashSketch,
        spec: BucketSpec,
        relation_name: str,
    ) -> None:
        self.dhs = dhs
        self.spec = spec
        self.relation_name = relation_name

    # ------------------------------------------------------------------
    # Metric naming.
    # ------------------------------------------------------------------
    def metric_for_bucket(self, index: int) -> Hashable:
        """DHS metric id of bucket ``index``."""
        return (self.relation_name, "hist", index)

    def all_metrics(self) -> list[Hashable]:
        """Metric ids of every bucket, in bucket order."""
        return [self.metric_for_bucket(i) for i in range(self.spec.n_buckets)]

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def record(
        self,
        item: Any,
        value: float,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record one tuple (id + attribute value) into its bucket."""
        index = self.spec.bucket_index(value)
        return self.dhs.insert(self.metric_for_bucket(index), item, origin=origin, now=now)

    # ------------------------------------------------------------------
    # Reconstruction.
    # ------------------------------------------------------------------
    def reconstruct(
        self,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> HistogramReconstruction:
        """Rebuild the full histogram with one multi-metric count."""
        metrics = self.all_metrics()
        result = self.dhs.count_many(metrics, origin=origin, now=now)
        counts = list(result.estimates.values())  # in request order
        return HistogramReconstruction(
            histogram=Histogram.from_counts(self.spec, counts),
            count_result=result,
        )

    def reconstruct_buckets(
        self,
        indices: Iterable[int],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> HistogramReconstruction:
        """Estimate only the buckets a query predicate needs.

        Unqueried buckets are reported as zero; the histogram returned is
        only meaningful over the requested indices (the paper highlights
        this partial-reconstruction saving in section 5.2).  Raises
        ``ValueError``, before anything is counted, for an index outside
        ``[0, n_buckets)``.
        """
        wanted = sorted(set(indices))
        n_buckets = self.spec.n_buckets
        bad = [index for index in wanted if not 0 <= index < n_buckets]
        if bad:
            raise ValueError(
                f"bucket index {bad[0]} out of range [0, {n_buckets})"
            )
        metrics = [self.metric_for_bucket(i) for i in wanted]
        result = self.dhs.count_many(metrics, origin=origin, now=now)
        counts = [0.0] * n_buckets
        for index, metric in zip(wanted, metrics):
            counts[index] = result.estimates[metric]
        return HistogramReconstruction(
            histogram=Histogram.from_counts(self.spec, counts),
            count_result=result,
        )
