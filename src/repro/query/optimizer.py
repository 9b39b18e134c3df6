"""Histogram-driven join-order optimization (Selinger-style DP).

``optimize`` enumerates bushy join trees over subsets of the query's
relations, estimating intermediate cardinalities from the catalog's
(DHS-reconstructed) histograms and costing plans with the PIER shipping
model: every join ships both of its inputs.  With the handful of
relations the evaluation uses, exhaustive subset DP is exact and cheap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import QueryError
from repro.query.catalog import Catalog, CatalogEntry
from repro.query.join import estimate_join_size
from repro.query.plans import BaseRel, JoinNode, Plan, PlanNode

__all__ = ["optimize", "apply_predicates"]

_MAX_RELATIONS = 12

#: A range predicate on one relation: ``(lo, hi)`` filters the join
#: attribute ``a``; ``("b", lo, hi)`` filters the non-join attribute.
Predicates = Dict[str, tuple]


def _split_predicate(name: str, predicate: tuple) -> Tuple[str, float, float]:
    if len(predicate) == 2:
        attribute, (lo, hi) = "a", predicate
    elif len(predicate) == 3 and predicate[0] in ("a", "b"):
        attribute, lo, hi = predicate
    else:
        raise QueryError(
            f"predicate on {name!r} must be (lo, hi) or ('a'|'b', lo, hi); "
            f"got {predicate!r}"
        )
    if hi <= lo:
        raise QueryError(f"empty predicate range [{lo}, {hi}) on {name!r}")
    return attribute, float(lo), float(hi)


def apply_predicates(catalog: Catalog, predicates: Optional[Predicates]) -> Catalog:
    """A derived catalog with per-relation range predicates pushed down.

    Join-attribute predicates restrict the join histogram bucket-wise;
    non-join (``b``) predicates scale it by the ``b``-selectivity under
    the attribute-value-independence assumption.  Either way the bucket
    spec is preserved, so join-size estimation over a mix of filtered
    and unfiltered relations stays well-defined.
    """
    if not predicates:
        return catalog
    derived = Catalog(entries=dict(catalog.entries),
                      acquisition_cost=catalog.acquisition_cost)
    for name, predicate in predicates.items():
        entry = catalog.entry(name)
        attribute, lo, hi = _split_predicate(name, predicate)
        if attribute == "a":
            histogram = entry.histogram.restrict(lo, hi)
        else:
            if entry.filter_histogram is None:
                raise QueryError(
                    f"relation {name!r} has no filter-attribute statistics"
                )
            selectivity = entry.filter_histogram.selectivity_range(lo, hi)
            histogram = entry.histogram.scale(selectivity)
        derived.entries[name] = CatalogEntry(
            name=entry.name,
            histogram=histogram,
            tuple_bytes=entry.tuple_bytes,
            filter_histogram=entry.filter_histogram,
        )
    return derived


def _subset_rows(catalog: Catalog, subset: FrozenSet[str]) -> float:
    histograms = [catalog.entry(name).histogram for name in subset]
    return estimate_join_size(histograms)


def _subset_tuple_bytes(catalog: Catalog, subset: FrozenSet[str]) -> int:
    """Width of a joined tuple: concatenation of its constituents."""
    return sum(catalog.entry(name).tuple_bytes for name in subset)


def _subset_bytes(catalog: Catalog, subset: FrozenSet[str], rows: float) -> float:
    return rows * _subset_tuple_bytes(catalog, subset)


def optimize(
    catalog: Catalog,
    relation_names: List[str],
    predicates: Optional[Predicates] = None,
) -> Plan:
    """The cheapest join tree for an equi-join over ``relation_names``.

    ``predicates`` maps relation names to ``(lo, hi)`` range filters on
    the join attribute; they are pushed below the joins (both the size
    estimates and, in :mod:`repro.query.engine`, the execution do the
    filtering before shipping anything).
    """
    catalog = apply_predicates(catalog, predicates)
    if not relation_names:
        raise QueryError("optimize needs at least one relation")
    if len(set(relation_names)) != len(relation_names):
        raise QueryError("relation names must be unique")
    if len(relation_names) > _MAX_RELATIONS:
        raise QueryError(
            f"exhaustive DP is capped at {_MAX_RELATIONS} relations; "
            f"got {len(relation_names)}"
        )
    for name in relation_names:
        catalog.entry(name)  # validate upfront

    # best[subset] = (cost to produce the subset's join, plan node)
    best: Dict[FrozenSet[str], Tuple[float, PlanNode]] = {}
    rows: Dict[FrozenSet[str], float] = {}
    for name in relation_names:
        singleton = frozenset([name])
        best[singleton] = (0.0, BaseRel(name))
        rows[singleton] = _subset_rows(catalog, singleton)

    universe = frozenset(relation_names)
    for size in range(2, len(relation_names) + 1):
        for subset_tuple in combinations(sorted(universe), size):
            subset = frozenset(subset_tuple)
            rows[subset] = _subset_rows(catalog, subset)
            champion: Tuple[float, PlanNode] | None = None
            members = sorted(subset)
            # Enumerate proper splits; fix the first member on the left
            # to halve the symmetric duplicates.
            rest = members[1:]
            for left_size in range(0, len(rest) + 1):
                for extra in combinations(rest, left_size):
                    left = frozenset((members[0],) + extra)
                    right = subset - left
                    if not right:
                        continue
                    cost = (
                        best[left][0]
                        + best[right][0]
                        + _subset_bytes(catalog, left, rows[left])
                        + _subset_bytes(catalog, right, rows[right])
                    )
                    if champion is None or cost < champion[0]:
                        champion = (cost, JoinNode(best[left][1], best[right][1]))
            assert champion is not None
            best[subset] = champion

    cost, root = best[universe]
    return Plan(root=root, estimated_cost_bytes=cost, estimated_rows=rows[universe])
