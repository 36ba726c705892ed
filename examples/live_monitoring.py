#!/usr/bin/env python3
"""Live timedness monitoring of a running system.

Attaches the live Definition-1 judge (:class:`TimedInstruments`, the
bundle a live stack exports from ``/metrics``) to a cluster's trace
stream and counts an alert the moment any read violates the delta bound
— then cross-checks against the offline analysis.  Operations arrive in
completion order, so a read can arrive before the write it returns; the
judge holds such a read until its writer arrives, then judges it at its
own time.

The demo runs the *plain SC* protocol while monitoring against a 0.5s
freshness requirement: SC makes no timeliness promise, so the monitor
fires; running the same workload under TSC(0.5) silences it.

Run:  python examples/live_monitoring.py
"""

import math

from repro.core.timed import late_reads, w_r_set
from repro.obs import Registry, TimedInstruments
from repro.protocol import Cluster
from repro.workloads import read_heavy_hotspot

DELTA = 0.5


def run_with_monitor(variant: str, delta, seed: int = 23):
    """Run ``variant`` at ``delta`` under a live judge at :data:`DELTA`;
    returns the cluster and the judge."""
    cluster = Cluster(
        n_clients=5, n_servers=1, variant=variant, delta=delta, seed=seed
    )
    live = TimedInstruments(Registry(), DELTA)
    cluster.recorder.add_listener(live.on_op)
    cluster.spawn(read_heavy_hotspot(n_ops=80, mean_think_time=0.1,
                                     write_fraction=0.08))
    cluster.run()
    return cluster, live


def main() -> None:
    print(f"monitoring requirement: every read fresh within {DELTA}s\n")

    cluster, live = run_with_monitor("sc", math.inf)
    counts = live.ontime.counts
    history = cluster.history()
    print("== plain SC protocol ==")
    print(f"  reads observed: {len(history.reads)}")
    print(f"  LIVE ALERTS:    {counts['late']} late reads "
          f"(worst lag {live.ontime.required_delta:.2f}s)")
    offline = late_reads(history, DELTA)
    for read_op in offline[:3]:
        missed = w_r_set(history, read_op, DELTA)[0]
        print(f"    {read_op.label()}@{read_op.time:.2f} missed "
              f"{missed.label()}@{missed.time:.2f}")
    print(f"  offline cross-check: {len(offline)} late reads — "
          f"{'match' if len(offline) == counts['late'] else 'MISMATCH'}")

    cluster, live = run_with_monitor("tsc", DELTA)
    print(f"\n== TSC(delta={DELTA}) protocol, same workload ==")
    print(f"  reads observed: {len(cluster.history().reads)}")
    print(f"  LIVE ALERTS:    {live.ontime.counts['late']}")
    print(f"  running threshold (max lag seen): "
          f"{live.ontime.required_delta:.3f}s <= delta + round trip")


if __name__ == "__main__":
    main()
