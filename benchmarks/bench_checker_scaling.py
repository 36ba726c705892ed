"""Scaling of the checking engine across history lengths.

The checkers decide every criterion with one engine: the effective-time
order is tried first (one pass, the witness of any linearizable
history), then constraint saturation.  This bench sweeps ``check_sc``
over three families and races it against the recursive reference search
(``tests/search_reference.py``):

* ``random_linearizable_history``, 10^2..10^5 ops — the time order
  decides, with no branch node and no recursion;
* ``random_sc_history``, 100..1000 ops — not linearizable, so saturation
  decides, and the branch nodes it used are reported;
* traces of the simulated SC lifetime protocol, 20..160 ops per client —
  saturation's per-op cost stays near-polynomial;
* the verdict race: engine and reference must agree on
  ``random_sc_history`` and ``random_history`` up to 400 ops, and the
  engine must beat the reference by a floor at 200 ops;
* memory: ``check_sc`` on ``random_sc_history(n_sites=6,
  n_objects=10)`` at 1000..4000 ops, each in a child process whose peak
  RSS is reported (a branch undoes through a trail, so a path that never
  backtracks costs its own edges, not a copy of the matrix per node);
* one recorded trace: ``judge``, ``threshold_report``, ``classify`` and
  ``check_cc`` on the seed-3 virtual-time ring soak (1 806 ops), with
  the engine's runs, ``add_edge`` calls, branch nodes and trail entries.

Runs two ways:

* ``pytest benchmarks/bench_checker_scaling.py`` — full bench, appends
  the tables to ``latest_results.txt`` via the shared reporter;
* ``python benchmarks/bench_checker_scaling.py [--smoke]`` — plain
  script for CI; ``--smoke`` shrinks the sweeps but still checks a
  10^5-op linearizable history at the default recursion limit, every
  race verdict, the speed floor, the 2000-op memory bound and the
  soak's rows, with ``check_cc`` under :data:`CC_EDGE_BOUND` insertions.
"""

import json
import os
import random
import subprocess
import sys
import time

from repro.checkers import (
    check_cc, check_sc, classify, constraint, judge, threshold_report,
)
from repro.net.workloads import ring_cluster
from repro.protocol import Cluster
from repro.sim import vtime
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_sc_history,
    uniform_workload,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The recursive reference is a test oracle, kept under tests/.
sys.path.insert(0, ROOT)
from tests.search_reference import check_sc_reference  # noqa: E402

LIN_SIZES = (100, 1000, 10_000, 100_000)
SC_SIZES = (100, 316, 1000)
RACE_SIZES = (50, 100, 200, 400)
PROTOCOL_OPS = (20, 40, 80, 160)
RACE_AT = 200  # history length of the speed floor
SPEEDUP_FLOOR = 5.0  # acceptance floor for the full bench
SMOKE_SPEEDUP_FLOOR = 2.0  # noise-tolerant floor for shared CI runners
MEMORY_SIZES = (1000, 2000, 4000)
MEMORY_AT = 2000  # history length of the memory bound
#: Peak RSS of the child checking MEMORY_AT ops, interpreter included:
#: 36-60 MB measured, the higher figures when the child compiles `src/`
#: (679 MB when every branch node copied the matrix).
MEMORY_BOUND_MB = 100
#: The soak of ROADMAP item 17, replayed in virtual time: one trace.
SOAK = dict(n_servers=3, n_clients=3, replicas=2, rounds=600, think=0.001,
            seed=3)
#: ``check_cc``'s ``add_edge`` calls on the soak: 6 366 measured, the
#: transitive reduction of each site's causal order (1 424 552 when every
#: causal pair was an edge).  Deterministic under virtual time.
CC_EDGE_BOUND = 10_000


def timed_sc(history):
    start = time.perf_counter()
    result = check_sc(history)
    return result, time.perf_counter() - start


def lin_rows(sizes):
    """The time-order path: must need no branch node."""
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
    return rows


def sc_rows(sizes):
    """The saturation path on SC-by-construction, non-LIN histories."""
    check_sc(random_sc_history(random.Random(0)))  # warm-up, untimed
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


#: Run in a fresh interpreter: ``check_sc`` on one history, reported as
#: JSON with the process's peak RSS (Linux reports ``ru_maxrss`` in KiB).
MEMORY_CHILD = """
import json, random, resource, sys, time
from repro.checkers import check_sc
from repro.workloads import random_sc_history
history = random_sc_history(random.Random(7), n_sites=6, n_objects=10,
                            n_ops=int(sys.argv[1]))
start = time.perf_counter()
result = check_sc(history)
print(json.dumps([result.satisfied, result.states_explored,
                  time.perf_counter() - start,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


def memory_rows(sizes):
    """Peak memory of the saturation path, one child process per size."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rows = []
    for n in sizes:
        out = subprocess.run(
            [sys.executable, "-c", MEMORY_CHILD, str(n)], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        satisfied, nodes, seconds, rss_mb = json.loads(out)
        assert satisfied
        rows.append({"ops": n, "check_s": round(seconds, 2),
                     "branch_nodes": nodes, "peak_rss_mb": round(rss_mb, 1)})
    return rows


class CountingReach(constraint._Reach):
    """The engine's matrix, counting its insertions and trail entries,
    and the engine's runs (each builds one matrix)."""

    engine_runs = 0
    add_edge_calls = 0
    trail_entries = 0

    def __init__(self, n):
        CountingReach.engine_runs += 1
        super().__init__(n)

    def add_edge(self, a, b):
        CountingReach.add_edge_calls += 1
        logged = len(self.trail) if self.trail is not None else 0
        ok = super().add_edge(a, b)
        if self.trail is not None:
            CountingReach.trail_entries += len(self.trail) - logged
        return ok


def counted(check, *args):
    """``check(*args)``, its seconds and the engine's counts."""
    CountingReach.engine_runs = 0
    CountingReach.add_edge_calls = CountingReach.trail_entries = 0
    constraint._Reach = CountingReach
    try:
        start = time.perf_counter()
        result = check(*args)
        seconds = time.perf_counter() - start
    finally:
        constraint._Reach = CountingReach.__bases__[0]
    return result, {"seconds": round(seconds, 2),
                    "engine_runs": CountingReach.engine_runs,
                    "add_edge_calls": CountingReach.add_edge_calls,
                    "trail_entries": CountingReach.trail_entries}


def soak_rows():
    """The verdict front-ends and ``check_cc`` on one recorded trace: the
    seed-3 ring soak in virtual time."""
    report = vtime.run(ring_cluster(**SOAK))
    history, delta, epsilon = report.history, report.delta, report.epsilon
    ops = len(history)
    verdict, row = counted(judge, history, delta, epsilon)
    assert (verdict.tsc.satisfied, verdict.tcc.satisfied, verdict.sc.satisfied,
            len(verdict.late_reads)) == (True, True, True, 0)
    # The derived TCC searched nothing: SC's branch nodes are judge's.
    assert verdict.tcc.states_explored == 0
    rows = [dict(check="judge", ops=ops, **row,
                 branch_nodes=verdict.sc.states_explored)]
    thresholds, row = counted(threshold_report, history, epsilon)
    assert thresholds.sc_holds and thresholds.cc_holds
    rows.append(dict(check="threshold_report", ops=ops, **row))
    cls, row = counted(classify, history, delta, epsilon)
    assert cls.region() == "TSC+SC+TCC+CC"
    rows.append(dict(check="classify", ops=ops, **row))
    cc, row = counted(check_cc, history)
    assert cc.satisfied
    rows.append(dict(check="check_cc", ops=ops, **row,
                     branch_nodes=cc.states_explored))
    return rows


def cc_edges(soak):
    return next(r["add_edge_calls"] for r in soak if r["check"] == "check_cc")


SCALING_NOTES = (
    "check_sc, one run each, seed 7.  linearizable: the effective-time "
    "order is the witness (0 branch nodes, no recursion).  sc "
    "and protocol: constraint saturation over program order."
)
RACE_NOTES = (
    "check_sc against the recursive reference search "
    "(tests/search_reference.py), which needs a raised recursion limit; "
    "the verdicts must agree at every size."
)
MEMORY_NOTES = (
    "check_sc on random_sc_history(random.Random(7), n_sites=6, "
    "n_objects=10), one child process per size; peak_rss_mb is the "
    "child's ru_maxrss, interpreter included."
)
SOAK_NOTES = (
    "ring_cluster(n_servers=3, n_clients=3, replicas=2, rounds=600, "
    "think=0.001, seed=3) under repro.sim.vtime, then the check on its "
    "merged history: one SC search gives judge's and threshold_report's "
    "verdicts (every one satisfied, no late read); classify searches SC "
    "once and CC once per site; check_cc feeds the transitive reduction of "
    "causal order.  trail_entries are the rows and columns a branch logged "
    "to undo; branch_nodes are reported where the result carries them."
)


def run_all(smoke):
    rows = lin_rows(LIN_SIZES if not smoke else (100, 100_000))
    rows += sc_rows(SC_SIZES if not smoke else (100, 316))
    if not smoke:
        rows += protocol_rows(PROTOCOL_OPS)
    race, speedup = race_rows(RACE_SIZES if not smoke else (50, RACE_AT))
    memory = memory_rows(MEMORY_SIZES if not smoke else (MEMORY_AT,))
    soak = soak_rows()
    return rows, race, speedup, memory, soak


def memory_at(memory):
    return next(r["peak_rss_mb"] for r in memory if r["ops"] == MEMORY_AT)


def report_all(rows, race, memory, soak):
    from _report import report

    report("Checking engine scaling: check_sc by history family", rows,
           columns=["family", "ops", "check_ms", "branch_nodes", "us_per_op"],
           notes=SCALING_NOTES)
    report("Checking engine vs the recursive reference search", race,
           columns=["history", "ops", "verdict", "engine_ms",
                    "reference_ms", "speedup"],
           notes=RACE_NOTES)
    report("Checking engine memory: check_sc on random_sc_history", memory,
           columns=["ops", "check_s", "branch_nodes", "peak_rss_mb"],
           notes=MEMORY_NOTES)
    report("One recorded trace: the verdict front-ends and check_cc on the "
           "seed-3 ring soak",
           soak, columns=["check", "ops", "seconds", "engine_runs",
                          "add_edge_calls", "branch_nodes", "trail_entries"],
           notes=SOAK_NOTES)


def test_checker_scaling(benchmark):
    rows, race, speedup, memory, soak = benchmark.pedantic(
        run_all, args=(False,), rounds=1, iterations=1
    )
    assert speedup is not None and speedup >= SPEEDUP_FLOOR, (
        f"engine only {speedup:.1f}x faster than the reference at "
        f"n={RACE_AT}"
    )
    assert memory_at(memory) <= MEMORY_BOUND_MB
    assert cc_edges(soak) <= CC_EDGE_BOUND
    report_all(rows, race, memory, soak)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI sweep: fewer sizes, relaxed speedup floor",
    )
    args = parser.parse_args(argv)
    floor = SMOKE_SPEEDUP_FLOOR if args.smoke else SPEEDUP_FLOOR

    rows, race, speedup, memory, soak = run_all(args.smoke)
    for row in rows + race + memory + soak:
        print(row)
    print(f"recursion limit {sys.getrecursionlimit()}; speedup over the "
          f"reference at n={RACE_AT}: {speedup:.1f}x (floor {floor}x); "
          f"peak RSS at n={MEMORY_AT}: {memory_at(memory)} MB "
          f"(bound {MEMORY_BOUND_MB} MB); check_cc add_edge calls on the "
          f"soak: {cc_edges(soak)} (bound {CC_EDGE_BOUND})")
    if speedup < floor:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    if memory_at(memory) > MEMORY_BOUND_MB:
        print("FAIL: peak memory above bound", file=sys.stderr)
        return 1
    if cc_edges(soak) > CC_EDGE_BOUND:
        print("FAIL: check_cc add_edge calls above bound", file=sys.stderr)
        return 1
    if not args.smoke:
        report_all(rows, race, memory, soak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
