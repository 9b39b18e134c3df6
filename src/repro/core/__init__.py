"""DHS core: the paper's contribution — distributed hash sketches."""

from repro.core.config import DEFAULT_LIM, DHSConfig
from repro.core.count import Counter, CountResult
from repro.core.dhs import DistributedHashSketch
from repro.core.insert import Inserter
from repro.core.maintenance import refresh, sweep_expired
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.regstore import RegArena, RegSlot
from repro.core.retries import (
    lim_for_interval,
    lim_with_replication,
    prob_all_probes_empty,
    success_probability,
)
from repro.core.tuples import (
    PackedSlot,
    bits_of,
    merge_store_values,
    purge_expired,
    storage_entries,
    vectors_mask,
    write_entry,
    write_entry_mask,
)

__all__ = [
    "DEFAULT_LIM",
    "DHSConfig",
    "Counter",
    "CountResult",
    "DistributedHashSketch",
    "Inserter",
    "refresh",
    "sweep_expired",
    "BitIntervalMap",
    "DEFAULT_POLICY",
    "RetryPolicy",
    "RegArena",
    "RegSlot",
    "lim_for_interval",
    "lim_with_replication",
    "prob_all_probes_empty",
    "success_probability",
    "PackedSlot",
    "bits_of",
    "merge_store_values",
    "purge_expired",
    "storage_entries",
    "vectors_mask",
    "write_entry",
    "write_entry_mask",
]
