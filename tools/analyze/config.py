"""Configuration for dhslint.

The frozen :class:`Config` below is the one place the analyzer's project
knowledge lives: the layer DAG, the seed root, the float-strict packages
and the whole-program pass settings.  The CLI runs with ``Config()``;
tests construct it with overrides to exercise a rule against another
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The import layering DAG, bottom-up.  A module in layer ``i`` may import
#: from any layer ``j < i`` (and from its own top-level package), never from
#: its own layer's siblings or above.  Mirrors docs/ARCHITECTURE.md §6.
DEFAULT_LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors", "hashing", "obs"),
    ("sim", "sketches"),
    ("overlay", "workloads"),
    ("core",),
    ("histograms", "baselines"),
    ("query",),
    ("experiments",),
    ("cli",),
)


@dataclass(frozen=True)
class Config:
    """Resolved dhslint configuration."""

    #: Root package whose layering the DHS2xx rules enforce.
    package: str = "repro"
    #: Bottom-up layer groups of top-level sub-packages/modules of ``package``.
    layers: tuple[tuple[str, ...], ...] = DEFAULT_LAYERS
    #: Modules allowed to construct RNGs directly (the seed-derivation root).
    determinism_exempt: tuple[str, ...] = ("repro.sim.seeds",)
    #: Packages where float ``==``/``!=`` comparisons are forbidden (DHS301).
    float_strict: tuple[str, ...] = (
        "repro.sketches",
        "repro.core",
        "repro.histograms",
    )
    # ------------------------------------------------------------------
    # Whole-program (DHS8xx) configuration.
    # ------------------------------------------------------------------
    #: Abstract classes whose method calls dispatch to every declared
    #: implementor when the receiver's concrete type is unknown.
    dispatch_roots: tuple[str, ...] = ("repro.overlay.dht.DHTProtocol",)
    #: The picklable trial-cell spec; its ``fn`` arguments are the worker
    #: entry points of the shared-state write analysis (DHS81x).
    trial_spec: str = "repro.sim.parallel.TrialSpec"
    #: Module prefixes whose shared-state writes are sanctioned (the
    #: parallel harness itself and the obs merge machinery).
    worker_exempt: tuple[str, ...] = ("repro.obs", "repro.sim.parallel")
    #: Module prefixes allowed to write node stores directly — everything
    #: else must go through ``DHTProtocol.store``'s write callback.
    store_write_modules: tuple[str, ...] = ("repro.overlay", "repro.core.tuples")
    #: Modules whose public functions must be provably side-effect-free
    #: (the sketch-merge algebra and the estimator functions, DHS82x).
    purity_modules: tuple[str, ...] = (
        "repro.sketches.merge",
        "repro.sketches.setops",
        "repro.sketches.estimators",
    )
    #: Packages whose ``estimate`` methods must be side-effect-free.
    estimator_packages: tuple[str, ...] = ("repro.sketches",)

    def layer_of(self, segment: str) -> Optional[int]:
        """Layer index of a top-level segment, or ``None`` if unassigned."""
        for index, group in enumerate(self.layers):
            if segment in group:
                return index
        return None
