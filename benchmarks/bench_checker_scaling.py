"""Scaling of the checking engine across history lengths.

The checkers decide every criterion with one engine: the effective-time
order is tried first (one pass, the witness of any linearizable
history), then constraint saturation.  This bench sweeps ``check_sc``
over three families and races it against the recursive reference search
(``tests/search_reference.py``):

* ``random_linearizable_history``, 10^2..10^5 ops — the time order
  decides, with no branch node, no numpy and no recursion;
* ``random_sc_history``, 100..1000 ops — not linearizable, so saturation
  decides, and the branch nodes it used are reported;
* traces of the simulated SC lifetime protocol, 20..160 ops per client —
  saturation's per-op cost stays near-polynomial;
* the verdict race: engine and reference must agree on
  ``random_sc_history`` and ``random_history`` up to 400 ops, and the
  engine must beat the reference by a floor at 200 ops.

Runs two ways:

* ``pytest benchmarks/bench_checker_scaling.py`` — full bench, appends
  the tables to ``latest_results.txt`` via the shared reporter;
* ``python benchmarks/bench_checker_scaling.py [--smoke]`` — plain
  script for CI; ``--smoke`` shrinks the sweeps but still checks a
  10^5-op linearizable history at the default recursion limit without
  importing numpy, every race verdict and the speed floor.
"""

import os
import random
import sys
import time

from repro.checkers import check_sc
from repro.protocol import Cluster
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_sc_history,
    uniform_workload,
)

# The recursive reference is a test oracle, kept under tests/.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.search_reference import check_sc_reference  # noqa: E402

LIN_SIZES = (100, 1000, 10_000, 100_000)
SC_SIZES = (100, 316, 1000)
RACE_SIZES = (50, 100, 200, 400)
PROTOCOL_OPS = (20, 40, 80, 160)
RACE_AT = 200  # history length of the speed floor
SPEEDUP_FLOOR = 5.0  # acceptance floor for the full bench
SMOKE_SPEEDUP_FLOOR = 2.0  # noise-tolerant floor for shared CI runners


def timed_sc(history):
    start = time.perf_counter()
    result = check_sc(history)
    return result, time.perf_counter() - start


def lin_rows(sizes):
    """The time-order path: must need no branch node and no numpy."""
    preloaded = "numpy" in sys.modules  # by another bench in the session
    rows = []
    for n in sizes:
        history = random_linearizable_history(
            random.Random(7), n_sites=6, n_objects=10, n_ops=n
        )
        result, seconds = timed_sc(history)
        assert result.satisfied and result.states_explored == 0
        rows.append({"family": "linearizable", "ops": n,
                     "check_ms": round(seconds * 1000, 2),
                     "branch_nodes": 0,
                     "us_per_op": round(seconds * 1e6 / n, 2)})
    assert preloaded or "numpy" not in sys.modules, "time order used numpy"
    return rows


def sc_rows(sizes):
    """The saturation path on SC-by-construction, non-LIN histories."""
    check_sc(random_sc_history(random.Random(0)))  # imports numpy, untimed
    rows = []
    for n in sizes:
        history = random_sc_history(
            random.Random(7), n_sites=4, n_objects=4, n_ops=n
        )
        result, seconds = timed_sc(history)
        assert result.satisfied and result.states_explored > 0
        rows.append({"family": "sc", "ops": n,
                     "check_ms": round(seconds * 1000, 2),
                     "branch_nodes": result.states_explored,
                     "us_per_op": round(seconds * 1e6 / n, 2)})
    return rows


def protocol_trace(n_ops, n_clients=5, seed=8):
    cluster = Cluster(n_clients=n_clients, n_servers=1, variant="sc", seed=seed)
    cluster.spawn(uniform_workload(["A", "B", "C", "D"], n_ops=n_ops,
                                   write_fraction=0.25))
    cluster.run()
    return cluster.history()


def protocol_rows(sizes):
    rows = []
    for n_ops in sizes:
        history = protocol_trace(n_ops)
        result, seconds = timed_sc(history)
        assert result.satisfied
        rows.append({"family": "protocol", "ops": len(history),
                     "check_ms": round(seconds * 1000, 2),
                     "branch_nodes": result.states_explored,
                     "us_per_op": round(seconds * 1e6 / len(history), 2)})
    # Near-polynomial: 8x the ops must not cost more than ~400x.
    assert rows[-1]["check_ms"] < rows[0]["check_ms"] * 400 + 500
    return rows


def race_rows(sizes):
    """Engine vs recursive reference: same verdicts, and the times."""
    limit = sys.getrecursionlimit()
    # The reference recurses once per operation; give it room.
    sys.setrecursionlimit(max(limit, max(sizes) + 2000))
    rows, speedup = [], None
    try:
        for generator in (random_sc_history, random_history):
            for n in sizes:
                history = generator(
                    random.Random(7), n_sites=4, n_objects=4, n_ops=n
                )
                result, seconds = timed_sc(history)
                start = time.perf_counter()
                reference = check_sc_reference(history)
                ref_seconds = time.perf_counter() - start
                assert result.satisfied == reference.satisfied, (
                    f"{generator.__name__} n={n}: verdicts differ")
                ratio = ref_seconds / seconds if seconds > 0 else float("inf")
                if generator is random_sc_history and n == RACE_AT:
                    speedup = ratio
                rows.append({"history": generator.__name__, "ops": n,
                             "verdict": result.satisfied,
                             "engine_ms": round(seconds * 1000, 1),
                             "reference_ms": round(ref_seconds * 1000, 1),
                             "speedup": f"{ratio:.1f}x"})
    finally:
        sys.setrecursionlimit(limit)
    return rows, speedup


SCALING_NOTES = (
    "check_sc, one run each, seed 7.  linearizable: the effective-time "
    "order is the witness (0 branch nodes, no numpy, no recursion).  sc "
    "and protocol: constraint saturation over program order."
)
RACE_NOTES = (
    "check_sc against the recursive reference search "
    "(tests/search_reference.py), which needs a raised recursion limit; "
    "the verdicts must agree at every size."
)


def run_all(smoke):
    # Before anything imports numpy: the linearizable sweep must not.
    rows = lin_rows(LIN_SIZES if not smoke else (100, 100_000))
    rows += sc_rows(SC_SIZES if not smoke else (100, 316))
    if not smoke:
        rows += protocol_rows(PROTOCOL_OPS)
    race, speedup = race_rows(RACE_SIZES if not smoke else (50, RACE_AT))
    return rows, race, speedup


def report_all(rows, race):
    from _report import report

    report("Checking engine scaling: check_sc by history family", rows,
           columns=["family", "ops", "check_ms", "branch_nodes", "us_per_op"],
           notes=SCALING_NOTES)
    report("Checking engine vs the recursive reference search", race,
           columns=["history", "ops", "verdict", "engine_ms",
                    "reference_ms", "speedup"],
           notes=RACE_NOTES)


def test_checker_scaling(benchmark):
    rows, race, speedup = benchmark.pedantic(
        run_all, args=(False,), rounds=1, iterations=1
    )
    assert speedup is not None and speedup >= SPEEDUP_FLOOR, (
        f"engine only {speedup:.1f}x faster than the reference at "
        f"n={RACE_AT}"
    )
    report_all(rows, race)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI sweep: fewer sizes, relaxed speedup floor",
    )
    args = parser.parse_args(argv)
    floor = SMOKE_SPEEDUP_FLOOR if args.smoke else SPEEDUP_FLOOR

    rows, race, speedup = run_all(args.smoke)
    for row in rows + race:
        print(row)
    print(f"recursion limit {sys.getrecursionlimit()}; speedup over the "
          f"reference at n={RACE_AT}: {speedup:.1f}x (floor {floor}x)")
    if speedup < floor:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    if not args.smoke:
        report_all(rows, race)
    return 0


if __name__ == "__main__":
    sys.exit(main())
