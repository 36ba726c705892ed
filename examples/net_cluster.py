#!/usr/bin/env python3
"""A real TCP replica cluster, checker-verified end to end.

The live example: the full distributed stack of ``repro.net`` — a TCP
object server, three cache clients with *skewed* local clocks that
synchronize to the server NTP-style (Definition 2's approximately
synchronized clocks), push propagation, and frame-level fault injection.

Two runs of the same workload:

1. **healthy** — pushes arrive in milliseconds, well inside delta; the
   recorded trace satisfies TSC(delta) with the epsilon the clock-sync
   layer measured;
2. **degraded** — the fault injector delays every push frame beyond
   delta; readers keep serving the superseded version from cache and the
   checkers (TSC and the Definition 2 late-read list) flag the late
   reads.

That is the paper's push-vs-pull observation reproduced on live sockets:
a push design holds the timed bound only while propagation is on time.

Run:  python examples/net_cluster.py
"""

from repro.core.timed import min_timed_delta, w_r_set
from repro.net.workloads import run_push_staleness_demo

DELTA = 0.3  # seconds: every write must be visible cluster-wide by t + delta
SKEW = 0.15  # injected per-client clock error, corrected by sync


def run(push_delay: float, label: str) -> None:
    result = run_push_staleness_demo(
        n_clients=3, delta=DELTA, push_delay=push_delay, skew=SKEW,
    )
    totals = result.totals()
    late = result.late_reads
    print(f"\n== {label} (push delay {push_delay * 1000:.0f} ms) ==")
    print(f"  {totals.reads} reads / {totals.writes} writes over real TCP")
    print(f"  injected clock skew:    ±{SKEW * 1000:.0f} ms per client")
    print(f"  residual epsilon:       {result.epsilon * 1000:.3f} ms after sync")
    for client_id, offset in sorted(result.client_offsets.items()):
        print(f"    client {client_id}: estimated offset {offset * 1000:8.2f} ms")
    print(f"  trace is SC:            {bool(result.sc)}")
    print(f"  trace is TSC(delta):    {bool(result.tsc)}")
    print(f"  late reads flagged:     {len(late)}/{len(result.history.reads)}")
    if late:
        first = late[0]
        missed = w_r_set(result.history, first, DELTA, result.epsilon)
        need = min_timed_delta(result.history, result.epsilon)
        print(f"    e.g. {first.label()} at T={first.time:.3f} "
              f"missed {[w.label() for w in missed]} "
              f"(the trace would need delta >= {need:.3f})")


def main() -> None:
    print(f"delta = {DELTA}s; the server's clock is the reference timescale")
    run(push_delay=0.0, label="healthy cluster")
    run(push_delay=2 * DELTA, label="degraded cluster")
    print("\nSame protocol, same checkers: only the network changed.  "
          "Pull-mode clients (mode='pull') revalidate by rule 3 instead "
          "and hold delta whatever the network does.")


if __name__ == "__main__":
    main()
