"""Configuration for dhslint.

The defaults below mirror the shipped ``[tool.dhslint]`` block in
``pyproject.toml``, so the analyzer behaves identically whether or not a
config file is found (e.g. when checking a standalone snippet in a test
fixture).  ``load_config`` walks upward from the analyzed path looking for
a ``pyproject.toml`` with a ``[tool.dhslint]`` table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10 without tomli
    try:
        import tomli as tomllib  # type: ignore[import-not-found, no-redef]
    except ImportError:
        tomllib = None  # type: ignore[assignment]

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
    #: Rule codes disabled project-wide.
    disable: tuple[str, ...] = ()
    #: Path substrings to skip entirely.
    exclude: tuple[str, ...] = field(default_factory=tuple)
    # ------------------------------------------------------------------
    # Whole-program dataflow (DHS8xx) configuration.
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


def _from_table(table: Mapping[str, Any]) -> Config:
    """Build a :class:`Config` from a ``[tool.dhslint]`` TOML table."""
    config = Config()
    if "package" in table:
        config = replace(config, package=str(table["package"]))
    if "layers" in table:
        layers = tuple(tuple(str(name) for name in group) for group in table["layers"])
        config = replace(config, layers=layers)
    if "trial-spec" in table:
        config = replace(config, trial_spec=str(table["trial-spec"]))
    for toml_key, attr in (
        ("determinism-exempt", "determinism_exempt"),
        ("float-strict", "float_strict"),
        ("disable", "disable"),
        ("exclude", "exclude"),
        ("dispatch-roots", "dispatch_roots"),
        ("worker-exempt", "worker_exempt"),
        ("store-write-modules", "store_write_modules"),
        ("purity-modules", "purity_modules"),
        ("estimator-packages", "estimator_packages"),
    ):
        if toml_key in table:
            values: Sequence[Any] = table[toml_key]
            config = replace(config, **{attr: tuple(str(v) for v in values)})
    return config


def load_config(start: Path) -> Config:
    """Find and parse the nearest ``[tool.dhslint]`` above ``start``.

    Falls back to the built-in defaults when no ``pyproject.toml`` declares a
    ``[tool.dhslint]`` table, or when no TOML parser is available (Python
    3.10 without ``tomli``) — the defaults match the shipped configuration.
    """
    if tomllib is None:
        return Config()
    directory = start.resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate in (directory, *directory.parents):
        pyproject = candidate / "pyproject.toml"
        if not pyproject.is_file():
            continue
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("dhslint")
        if table is not None:
            return _from_table(table)
        return Config()
    return Config()
