"""Scaling of the serialization-search engine across history lengths.

PR 2 rewrote :mod:`repro.checkers.search` as an explicit-stack iterative
engine with per-object candidate indexing.  This bench sweeps history
length 10^2..10^4 and demonstrates the two properties the rewrite bought:

* histories past ~1000 operations check at the default recursion limit
  (the recursive reference engine dies with ``RecursionError`` there);
* at n=2000 the iterative engine is >= 5x faster in wall time than the
  recursive reference (which rescans every operation at every state).

Runs two ways:

* ``pytest benchmarks/bench_checker_scaling.py`` — full bench, appends
  the table to ``latest_results.txt`` via the shared reporter;
* ``python benchmarks/bench_checker_scaling.py [--smoke]`` — plain
  script for CI (no pytest-benchmark dependency); ``--smoke`` shrinks
  the sweep so the job stays fast, while still exercising a 5000-op
  history and the speedup floor.
"""

import os
import random
import sys
import time

from repro.checkers import (
    SearchStats,
    find_serialization,
    find_site_ordered_serialization,
    restrict_edges,
)
from repro.workloads import random_linearizable_history

# The recursive engines are a test oracle, kept under tests/.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.search_reference import find_serialization_recursive  # noqa: E402

COMPARE_AT = 2000  # history length of the iterative-vs-recursive race
SPEEDUP_FLOOR = 5.0  # acceptance floor for the full bench
SMOKE_SPEEDUP_FLOOR = 2.0  # noise-tolerant floor for shared CI runners


def make_history(n_ops, seed=7):
    rng = random.Random(seed)
    return random_linearizable_history(
        rng, n_sites=6, n_objects=10, n_ops=n_ops
    )


def general_inputs(history):
    ops = list(history.operations)
    preds = restrict_edges(history.immediate_program_order(), ops)
    return ops, preds


def time_iterative(history):
    ops, preds = general_inputs(history)
    stats = SearchStats()
    start = time.perf_counter()
    witness = find_serialization(
        ops, preds, history.initial_value, stats=stats
    )
    seconds = time.perf_counter() - start
    assert witness is not None
    return seconds, stats


def time_recursive(history):
    ops, preds = general_inputs(history)
    # The reference engine recurses once per operation; give it room so
    # we measure time, not the RecursionError this bench exists to kill.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, len(ops) + 2000))
    try:
        stats = SearchStats()
        start = time.perf_counter()
        witness = find_serialization_recursive(
            ops, preds, history.initial_value, stats=stats
        )
        seconds = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert witness is not None
    return seconds, stats


def run_sweep(lengths, compare_at=COMPARE_AT):
    rows = []
    speedup = None
    for n in lengths:
        history = make_history(n)
        seconds, stats = time_iterative(history)
        row = {
            "ops": n,
            "iterative_ms": round(seconds * 1000, 1),
            "states": stats.states,
            "states_per_sec": (
                int(stats.states / seconds) if seconds > 0 else 0
            ),
            "recursive_ms": "-",
            "speedup": "-",
        }
        if n == compare_at:
            rec_seconds, _ = time_recursive(history)
            speedup = rec_seconds / seconds if seconds > 0 else float("inf")
            row["recursive_ms"] = round(rec_seconds * 1000, 1)
            row["speedup"] = f"{speedup:.1f}x"
        rows.append(row)
    return rows, speedup


def run_site_ordered_probe(n=10000):
    """The site-ordered entry point at net-cluster scale."""
    history = make_history(n)
    sequences = {s: history.site_ops(s) for s in history.sites}
    stats = SearchStats()
    start = time.perf_counter()
    witness = find_site_ordered_serialization(
        sequences, history.initial_value, stats=stats
    )
    seconds = time.perf_counter() - start
    assert witness is not None
    return seconds, stats


NOTES = (
    "Iterative explicit-stack engine (PR 2) vs the recursive reference "
    "(search_reference.py).  The recursive engine needs a raised "
    "recursion limit above ~1000 ops; the iterative engine runs at the "
    "default limit at every size."
)


def test_checker_scaling(benchmark):
    from _report import report

    lengths = (100, 316, 1000, 2000, 3162, 10000)

    def run_all():
        rows, speedup = run_sweep(lengths)
        probe_seconds, probe_stats = run_site_ordered_probe()
        rows.append({
            "ops": "10000 (site-ordered)",
            "iterative_ms": round(probe_seconds * 1000, 1),
            "states": probe_stats.states,
            "states_per_sec": int(probe_stats.states / probe_seconds),
            "recursive_ms": "-",
            "speedup": "-",
        })
        return rows, speedup

    rows, speedup = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert speedup is not None and speedup >= SPEEDUP_FLOOR, (
        f"iterative engine only {speedup:.1f}x faster at n={COMPARE_AT}"
    )
    report(
        "Serialization-search engine scaling (iterative vs recursive "
        "reference)",
        rows,
        columns=["ops", "iterative_ms", "recursive_ms", "speedup",
                 "states", "states_per_sec"],
        notes=NOTES,
    )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI sweep: fewer sizes, relaxed speedup floor",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        lengths = (100, 1000, 2000)
        floor = SMOKE_SPEEDUP_FLOOR
        probe_n = 5000
    else:
        lengths = (100, 316, 1000, 2000, 3162, 10000)
        floor = SPEEDUP_FLOOR
        probe_n = 10000

    rows, speedup = run_sweep(lengths)
    probe_seconds, probe_stats = run_site_ordered_probe(probe_n)

    for row in rows:
        print(row)
    print(f"site-ordered n={probe_n}: {probe_seconds * 1000:.1f}ms, "
          f"{probe_stats.states} states "
          f"(recursion limit {sys.getrecursionlimit()})")
    print(f"speedup at n={COMPARE_AT}: {speedup:.1f}x (floor {floor}x)")

    if speedup < floor:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    if not args.smoke:
        from _report import report

        rows.append({
            "ops": f"{probe_n} (site-ordered)",
            "iterative_ms": round(probe_seconds * 1000, 1),
            "states": probe_stats.states,
            "states_per_sec": int(probe_stats.states / probe_seconds),
            "recursive_ms": "-",
            "speedup": "-",
        })
        report(
            "Serialization-search engine scaling (iterative vs recursive "
            "reference)",
            rows,
            columns=["ops", "iterative_ms", "recursive_ms", "speedup",
                     "states", "states_per_sec"],
            notes=NOTES,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
