"""Related-work baselines: one representative per family the paper surveys."""

from repro.baselines.base import BaselineResult, Scenario, distinct_count
from repro.baselines.convergecast import ConvergecastAggregator
from repro.baselines.gossip import GossipTrace, PushSumGossip
from repro.baselines.sampling import SamplingEstimator
from repro.baselines.single_node import PartitionedCounter, SingleNodeCounter
from repro.baselines.sketch_gossip import SketchGossip

__all__ = [
    "BaselineResult",
    "Scenario",
    "distinct_count",
    "ConvergecastAggregator",
    "GossipTrace",
    "PushSumGossip",
    "SamplingEstimator",
    "PartitionedCounter",
    "SingleNodeCounter",
    "SketchGossip",
]
