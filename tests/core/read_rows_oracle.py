"""Read rows against their source of truth, the slots.

A counter caches what its probes read on each node (``Node.read_rows``:
one packed row per metric block and position).  The rows are derived,
so at any moment every row still cached must equal a fresh build from
the node's slots.  :func:`assert_rows_match_slots` checks exactly that
for every row a counter has cached anywhere, then rebuilds every row of
every node, so that a store mutation which fails to drop a node's rows
is caught by the next check whatever the counts in between probed.
"""

from repro.core.count import Counter, CountResult
from repro.overlay.stats import OpCost


def rows_counter(dht, config, metrics):
    """A counter over ``dht`` whose metric table holds ``metrics``."""
    from repro.core.mapping import BitIntervalMap

    counter = Counter(
        dht, config, BitIntervalMap(dht.space, config), config.hash_family(dht.space.bits)
    )
    result = CountResult(estimates={}, sketches={}, cost=OpCost())
    counter._begin_scan(list(metrics), 0, 0, result, None)
    return counter


def _places(counter):
    """Row key -> (block, position) for every row ``counter`` may cache."""
    positions = range(counter.config.position_bits)
    return {
        block.row_base + position: (block, position)
        for block in counter._blocks
        for position in positions
    }


def assert_rows_match_slots(counter, dht, now):
    """Every cached row of ``counter`` equals a rebuild from the slots.

    A row stamped with a ``now`` (it holds a TTL'd entry) is rebuilt at
    that ``now``, an immortal-only one at any; a row built before its
    block grew is rebuilt over the members it was built with.  Then
    every row of every node is rebuilt at ``now``.  Returns how many
    rows were compared.
    """
    places = _places(counter)
    compared = 0
    for node_id in dht.node_ids():
        node = dht.node(node_id)
        for key, cached in (node.read_rows or {}).items():
            if key not in places:
                continue  # another counter's row
            block, position = places[key]
            stamp = cached[1]
            size, built_at = stamp if isinstance(stamp, tuple) else (stamp, 0)
            fresh = counter._read_row(node.store, block.members[:size], position, built_at)
            assert fresh == cached, (
                f"node {node_id}: row of position {position} is stale "
                f"(cached {cached!r}, slots give {fresh!r})"
            )
            compared += 1
    for node_id in dht.node_ids():
        node = dht.node(node_id)
        rows = node.read_rows if node.read_rows is not None else {}
        for key, (block, position) in places.items():
            rows[key] = counter._read_row(node.store, block.members, position, now)
        node.read_rows = rows
    return compared
