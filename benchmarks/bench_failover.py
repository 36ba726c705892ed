"""Time-to-detect and time-to-recover of automatic primary failover as
the SWIM probing cadence varies.

Every cell kills the primary of a live 3-server / 2-replica ring soak
(:func:`repro.net.workloads.ring_cluster` with ``kill_primary_midway``)
and measures the two latencies the cluster layer promises
(docs/CLUSTER.md):

* **time_to_detect** — crash to the first survivor's DEAD transition;
  must come in under ``detection_bound = 3*probe_period +
  suspect_timeout``, the blind window the promotion rule substitutes
  for the paper's delta (``Context := max(known, t - bound)``);
* **time_to_recover** — crash to the first write re-acknowledged on the
  failed-over ring (detection + coordinator failover + epoch cutover +
  the router's stale-epoch refresh), the issue's acceptance latency.

A cell is only admitted to the table if the failover actually happened:
a promotion ran, the cluster converged on a higher ring epoch, and the
post-failover workload completed.

Runs two ways:

* ``pytest benchmarks/bench_failover.py`` — full cadence sweep, appends
  the table to ``latest_results.txt`` via the shared reporter;
* ``python benchmarks/bench_failover.py [--smoke]`` — plain script for
  CI; ``--smoke`` runs the single default-cadence cell.
"""

import asyncio
import sys
import time

from repro.net.workloads import ring_cluster

SERVERS = 3
REPLICAS = 2
CLIENTS = 2
ROUNDS = 20
DELTA = 0.4

#: (probe_period, suspect_timeout) cells: the soak default, a snappier
#: detector, and a lazier one (bound 0.6s / 0.24s / 1.45s).
FULL_SWEEP = ((0.1, 0.3), (0.05, 0.09), (0.3, 0.55))
SMOKE_SWEEP = ((0.1, 0.3),)


def run_cell(probe_period, suspect_timeout, rounds=ROUNDS, seed=13):
    start = time.perf_counter()
    report = asyncio.run(
        ring_cluster(
            n_servers=SERVERS, replicas=REPLICAS, n_clients=CLIENTS,
            rounds=rounds, delta=DELTA, seed=seed,
            cluster=True, kill_primary_midway=True,
            probe_period=probe_period, suspect_timeout=suspect_timeout,
        )
    )
    wall = time.perf_counter() - start
    fault = report.fault
    row = {
        "probe_s": probe_period,
        "suspect_s": suspect_timeout,
        "bound_s": round(fault.detection_bound, 3),
        "detect_s": (
            round(fault.time_to_detect, 3)
            if fault.time_to_detect is not None else None
        ),
        "recover_s": (
            round(fault.time_to_recover, 3)
            if fault.time_to_recover is not None else None
        ),
        "promotions": fault.promotions,
        "epoch": fault.failover_epoch,
        "wall_s": round(wall, 2),
    }
    return row, report


def run_sweep(cells, rounds=ROUNDS):
    rows = []
    failures = []
    for probe_period, suspect_timeout in cells:
        row, report = run_cell(probe_period, suspect_timeout, rounds=rounds)
        rows.append(row)
        fault = report.fault
        cell = f"probe={probe_period}/suspect={suspect_timeout}"
        if fault.time_to_detect is None:
            failures.append(f"{cell}: victim never declared DEAD")
            continue
        if fault.time_to_recover is None:
            failures.append(f"{cell}: no write re-acked after the kill")
            continue
        if fault.promotions < 1:
            failures.append(f"{cell}: no server ran the promotion rule")
        if fault.failover_epoch is None or fault.failover_epoch <= 1:
            failures.append(f"{cell}: cluster never cut over to a new epoch")
        # Generous slack over the analytic bound: the bound is about the
        # protocol, the slack about a loaded CI host's scheduler.
        if fault.time_to_detect > fault.detection_bound + 2.0:
            failures.append(
                f"{cell}: detect {fault.time_to_detect:.3f}s exceeds "
                f"bound {fault.detection_bound:.3f}s (+2s slack)"
            )
    return rows, failures


NOTES = (
    "Real localhost TCP clusters (repro.net.workloads): "
    f"{SERVERS} servers x {REPLICAS} replicas, {CLIENTS} ring-routed "
    "clients; the primary of the first object is killed mid-soak. "
    "bound_s = 3*probe_period + suspect_timeout is the detection bound "
    "that plays delta in the promotion rule; detect_s is crash to the "
    "first DEAD transition, recover_s crash to the first re-acked "
    "write on the failed-over ring."
)

COLUMNS = [
    "probe_s", "suspect_s", "bound_s", "detect_s", "recover_s",
    "promotions", "epoch", "wall_s",
]


def _emit_bench(rows, smoke):
    """BENCH_failover.json: one flat metric set, keyed by cadence."""
    from _report import bench_json

    metrics = {}
    for row in rows:
        cell = f"p{row['probe_s']:g}_s{row['suspect_s']:g}".replace(".", "")
        metrics[f"{cell}_detect_s"] = row["detect_s"]
        metrics[f"{cell}_recover_s"] = row["recover_s"]
        metrics[f"{cell}_bound_s"] = row["bound_s"]
        metrics[f"{cell}_promotions"] = row["promotions"]
    bench_json(
        "failover",
        {"servers": SERVERS, "replicas": REPLICAS, "clients": CLIENTS,
         "delta": DELTA, "smoke": smoke,
         "cells": [list(c) for c in (SMOKE_SWEEP if smoke else FULL_SWEEP)]},
        metrics,
        notes="time-to-detect / time-to-recover vs SWIM probing cadence",
    )


def test_failover_latency(benchmark):
    from _report import report

    rows, failures = benchmark.pedantic(
        lambda: run_sweep(FULL_SWEEP), rounds=1, iterations=1
    )
    assert not failures, failures
    report(
        "Failover: time-to-detect and time-to-recover vs SWIM probing "
        "cadence (TCP, kill-primary mid-soak)",
        rows, columns=COLUMNS, notes=NOTES,
    )
    _emit_bench(rows, smoke=False)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: the single default-cadence cell",
    )
    args = parser.parse_args(argv)

    cells = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    rows, failures = run_sweep(cells)
    _emit_bench(rows, smoke=args.smoke)
    for row in rows:
        print(row)
    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    if not args.smoke:
        from _report import report

        report(
            "Failover: time-to-detect and time-to-recover vs SWIM probing "
            "cadence (TCP, kill-primary mid-soak)",
            rows, columns=COLUMNS, notes=NOTES,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
