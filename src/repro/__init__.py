"""repro — Distributed Hash Sketches over simulated DHT overlays.

A full reproduction of "Counting at Large: Efficient Cardinality
Estimation in Internet-Scale Data Networks" (Ntarmos, Triantafillou &
Weikum, ICDE 2006): PCSA and super-LogLog hash sketches distributed over
Chord/Kademlia overlays, DHS-based histograms, a histogram-driven query
optimizer, and the related-work baselines the paper compares against.

Quickstart::

    from repro import ChordRing, DHSConfig, DistributedHashSketch

    ring = ChordRing.build(1024, seed=7)
    dhs = DistributedHashSketch(ring, DHSConfig(num_bitmaps=256))
    dhs.insert_bulk("documents", (f"doc-{i}" for i in range(100_000)))
    result = dhs.count("documents")
    print(f"~{result.estimate():.0f} documents, {result.cost.hops} hops")
"""

from repro.core.config import DHSConfig
from repro.core.count import CountResult
from repro.core.dhs import DistributedHashSketch
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sketches import PCSASketch, SuperLogLogSketch

__version__ = "1.0.0"

__all__ = [
    "DHSConfig",
    "CountResult",
    "DistributedHashSketch",
    "DEFAULT_POLICY",
    "RetryPolicy",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "ChordRing",
    "KademliaOverlay",
    "PastryOverlay",
    "PCSASketch",
    "SuperLogLogSketch",
    "__version__",
]
