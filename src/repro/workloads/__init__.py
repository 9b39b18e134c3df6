"""Workload generators: Zipf values, relations Q/R/S/T, assignments,
multisets, multi-tenant traffic."""

from repro.workloads.assignment import assign_items, assign_uniform
from repro.workloads.multisets import zipf_duplicated_multiset
from repro.workloads.multitenant import (
    LoadBalance,
    gini_coefficient,
    load_balance,
    tenant_item_ids,
    tenant_metric,
    tenant_op_counts,
)
from repro.workloads.relations import (
    PAPER_SIZES,
    Relation,
    make_relation,
    standard_relations,
)
from repro.workloads.zipf import ZipfGenerator

__all__ = [
    "assign_items",
    "assign_uniform",
    "zipf_duplicated_multiset",
    "LoadBalance",
    "gini_coefficient",
    "load_balance",
    "tenant_item_ids",
    "tenant_metric",
    "tenant_op_counts",
    "PAPER_SIZES",
    "Relation",
    "make_relation",
    "standard_relations",
    "ZipfGenerator",
]
