#!/usr/bin/env python3
"""Network self-monitoring: estimating the live-node population.

The paper (section 3.2) lists "the cardinality of the node population"
as a basic metric DHS can estimate: every node registers *itself* under
a reserved metric with a soft-state TTL, and any node can then read off
how big the network currently is — through churn, without any central
membership service.

Run:  python examples/network_monitor.py
"""

from repro import ChordRing, DHSConfig, DistributedHashSketch
from repro.sim.seeds import rng_for

START_NODES = 600
TTL = 2  # rounds a registration stays alive without refresh


def main() -> None:
    ring = ChordRing.build(START_NODES, seed=41)
    # Counting ~N items over N nodes is DHS's hardest regime: each
    # logical bit has ~1 copy.  The paper's section 4.1 answer is to
    # raise the probe budget (eq. 6) and replicate set bits — hence the
    # beefier-than-default replication and lim.  The estimator is the
    # paper's super-LogLog: once the crashed nodes' registrations have
    # expired (round 7 on), it reads within a few percent of the live
    # population.
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=64, estimator="sll", ttl=TTL, replication=8, lim=25),
        seed=41,
    )
    rng = rng_for(41, "churn")

    print(f"{'round':>5} {'live':>6} {'estimate':>9} {'err':>7}")
    for now in range(12):
        # Every live node re-registers itself this round.
        dhs.register_nodes(now=now)
        result = dhs.count_nodes(origin=ring.random_live_node(rng), now=now)
        live = ring.size
        estimate = result.estimate()
        print(f"{now:>5} {live:>6} {estimate:>9,.0f} {abs(estimate / live - 1):>6.1%}")

        # Churn between rounds: a burst of failures, then steady growth.
        if now == 4:
            victims = rng.sample(list(ring.node_ids()), 250)
            for victim in victims:
                ring.fail_node(victim)
            print("      --- 250 nodes crash ---")
        else:
            for _ in range(rng.randrange(5, 30)):
                candidate = rng.randrange(ring.space.size)
                if not ring.has_node(candidate):
                    ring.add_node(candidate)

    print("\nthe population estimate tracks the crash and the regrowth —")
    print("no membership server, no broadcast: one DHS metric.")


if __name__ == "__main__":
    main()
