"""Scaling of the checking engine across history lengths.

The checkers decide every criterion with one engine: the effective-time
order is tried first (one pass, the witness of any linearizable
history), then the recorded write order (one topological sort), then
constraint saturation.  This bench sweeps ``check_sc`` over three
families and races it against the recursive reference search
(``tests/search_reference.py``):

* ``random_linearizable_history``, 10^2..10^5 ops — the time order
  decides, with no branch node and no recursion;
* ``random_sc_history``, 100..1000 ops — neither order is a witness, so
  saturation decides, and the branch nodes it used are reported;
* traces of the simulated SC lifetime protocol, 20..160 ops per client —
  the write order decides, and the per-op cost stays near-polynomial;
* the verdict race: engine and reference must agree on
  ``random_sc_history`` and ``random_history`` up to 400 ops, and the
  engine must beat the reference by a floor at 200 ops;
* memory: ``check_sc`` on ``random_sc_history(n_sites=6,
  n_objects=10)`` at 1000..4000 ops, each in a child process whose peak
  RSS is reported (a branch undoes through a trail, so a path that never
  backtracks costs its own edges, not a copy of the matrix per node);
* recorded traces: ``judge``, ``classify`` and ``check_cc`` on the
  seed-3 virtual-time ring soak (9 006 ops), where the recorded write
  order decides with no branch node, and ``judge`` on the same soak at
  99 906 ops in a child process, with its seconds and peak RSS.

Runs two ways:

* ``pytest benchmarks/bench_checker_scaling.py`` — full bench, appends
  the tables to ``latest_results.txt`` via the shared reporter;
* ``python benchmarks/bench_checker_scaling.py [--smoke]`` — plain
  script for CI; ``--smoke`` shrinks the sweeps but still checks a
  10^5-op linearizable history at the default recursion limit, every
  race verdict, the speed floor, the 2000-op memory bound and the
  9 006-op soak's rows; the full bench adds the 99 906-op soak.
"""

import json
import os
import random
import subprocess
import sys
import time

from repro.checkers import check_cc, check_sc, classify, judge
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
#: The soak of ROADMAP item 17, replayed in virtual time: 9 006 ops.
SOAK = dict(n_servers=3, n_clients=3, replicas=2, rounds=3000, think=0.001,
            seed=3)
#: Each front-end's seconds on the soak: 0.08-0.3 s measured (2 vCPUs),
#: with no branch node; 8.4 s for SC and 58.6 s for CC when the engine
#: searched the trace.
SOAK_SECONDS = 1.0
#: The same soak at 99 906 ops, judged in a child process: 1.8-2.0 s
#: and a 108-111 MB peak RSS, recording the trace included.
LARGE_SOAK = dict(SOAK, rounds=33_300)
LARGE_SOAK_SECONDS = 10.0
LARGE_SOAK_MB = 200


def timed_sc(history):
    start = time.perf_counter()
    result = check_sc(history)
    return result, time.perf_counter() - start


def family_row(family, history):
    """``check_sc`` on ``history`` and its row."""
    result, seconds = timed_sc(history)
    assert result.satisfied
    return result, {"family": family, "ops": len(history),
                    "check_ms": round(seconds * 1000, 2),
                    "branch_nodes": result.states_explored,
                    "us_per_op": round(seconds * 1e6 / len(history), 2)}


def lin_rows(sizes):
    """The time-order path: must need no branch node."""
    rows = []
    for n in sizes:
        result, row = family_row("linearizable", random_linearizable_history(
            random.Random(7), n_sites=6, n_objects=10, n_ops=n))
        assert result.states_explored == 0
        rows.append(row)
    return rows


def sc_rows(sizes):
    """The saturation path on SC-by-construction, non-LIN histories, whose
    write order is no witness."""
    check_sc(random_sc_history(random.Random(0)))  # warm-up, untimed
    rows = []
    for n in sizes:
        result, row = family_row("sc", random_sc_history(
            random.Random(7), n_sites=4, n_objects=4, n_ops=n))
        assert result.states_explored > 0
        rows.append(row)
    return rows


def protocol_trace(n_ops, n_clients=5, seed=8):
    cluster = Cluster(n_clients=n_clients, n_servers=1, variant="sc", seed=seed)
    cluster.spawn(uniform_workload(["A", "B", "C", "D"], n_ops=n_ops,
                                   write_fraction=0.25))
    cluster.run()
    return cluster.history()


def protocol_rows(sizes):
    rows = [family_row("protocol", protocol_trace(n))[1] for n in sizes]
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


def in_child(code, arg):
    """The JSON ``code`` prints, run in a fresh interpreter on ``arg``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return json.loads(subprocess.run(
        [sys.executable, "-c", code, arg], env=env,
        capture_output=True, text=True, check=True,
    ).stdout)


def memory_rows(sizes):
    """Peak memory of the saturation path, one child process per size."""
    rows = []
    for n in sizes:
        satisfied, nodes, seconds, rss_mb = in_child(MEMORY_CHILD, str(n))
        assert satisfied
        rows.append({"ops": n, "check_s": round(seconds, 2),
                     "branch_nodes": nodes, "peak_rss_mb": round(rss_mb, 1)})
    return rows


def soak_rows():
    """``judge``, ``classify`` and ``check_cc`` on one recorded trace: the
    seed-3 ring soak in virtual time."""
    report = vtime.run(ring_cluster(**SOAK))
    history, delta, epsilon = report.history, report.delta, report.epsilon
    rows = []

    def timed(check, call, branch_nodes):
        start = time.perf_counter()
        result = call()
        rows.append({"check": check, "ops": len(history),
                     "seconds": round(time.perf_counter() - start, 3),
                     "branch_nodes": branch_nodes(result)})
        return result

    verdict = timed("judge", lambda: judge(history, delta, epsilon),
                    lambda v: v.sc.states_explored)
    assert (verdict.tsc.satisfied, verdict.tcc.satisfied, verdict.sc.satisfied,
            len(verdict.late_reads)) == (True, True, True, 0)
    # With a budget of 0, one branch node would leave a verdict unknown.
    cls = timed("classify", lambda: classify(history, delta, epsilon, 0),
                lambda _: 0)
    assert cls.region() == "TSC+SC+TCC+CC"
    cc = timed("check_cc", lambda: check_cc(history),
               lambda r: r.states_explored)
    assert cc.satisfied
    return rows


#: Run in a fresh interpreter: record a soak, then ``judge`` it, reported
#: as a soak row with the process's peak RSS.
LARGE_SOAK_CHILD = """
import json, resource, sys, time
from repro.checkers import judge
from repro.net.workloads import ring_cluster
from repro.sim import vtime
report = vtime.run(ring_cluster(**json.loads(sys.argv[1])))
start = time.perf_counter()
verdict = judge(report.history, report.delta, report.epsilon)
seconds = time.perf_counter() - start
assert verdict.tsc.satisfied and verdict.tcc.satisfied and verdict.sc.satisfied
print(json.dumps({
    "check": "judge", "ops": len(report.history), "seconds": round(seconds, 3),
    "branch_nodes": verdict.sc.states_explored,
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


SCALING_NOTES = (
    "check_sc, one run each, seed 7.  linearizable: the effective-time "
    "order is the witness (0 branch nodes, no recursion).  protocol: the "
    "recorded write order is.  sc: constraint saturation over program "
    "order."
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
    "ring_cluster(n_servers=3, n_clients=3, replicas=2, think=0.001, "
    "seed=3) under repro.sim.vtime, rounds=3000 (9 006 ops) and "
    "rounds=33300 (99 906 ops, judged in a child process whose "
    "ru_maxrss, recording included, is peak_rss_mb): every verdict "
    "satisfied, no late read, and the recorded write order decides SC and "
    "each site's CC with no branch node."
)


def run_all(smoke):
    rows = lin_rows(LIN_SIZES if not smoke else (100, 100_000))
    rows += sc_rows(SC_SIZES if not smoke else (100, 316))
    if not smoke:
        rows += protocol_rows(PROTOCOL_OPS)
    race, speedup = race_rows(RACE_SIZES if not smoke else (50, RACE_AT))
    memory = memory_rows(MEMORY_SIZES if not smoke else (MEMORY_AT,))
    soak = soak_rows()
    if not smoke:
        soak.append(in_child(LARGE_SOAK_CHILD, json.dumps(LARGE_SOAK)))
    return rows, race, speedup, memory, soak


def memory_at(memory):
    return next(r["peak_rss_mb"] for r in memory if r["ops"] == MEMORY_AT)


def failures(speedup, floor, memory, soak):
    """Every bound the run broke, one line each."""
    out = []
    if speedup < floor:
        out.append(f"speedup over the reference {speedup:.1f}x < {floor}x")
    if memory_at(memory) > MEMORY_BOUND_MB:
        out.append(f"peak RSS at n={MEMORY_AT} above {MEMORY_BOUND_MB} MB")
    for row in soak:
        large = "peak_rss_mb" in row
        seconds = LARGE_SOAK_SECONDS if large else SOAK_SECONDS
        if row["branch_nodes"] or row["seconds"] >= seconds:
            out.append(f"not under {seconds} s without a branch node: {row}")
        if large and row["peak_rss_mb"] >= LARGE_SOAK_MB:
            out.append(f"not under {LARGE_SOAK_MB} MB: {row}")
    return out


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
    report("Recorded traces: judge, classify and check_cc on the seed-3 "
           "ring soak",
           soak, columns=["check", "ops", "seconds", "branch_nodes",
                          "peak_rss_mb"],
           notes=SOAK_NOTES)


def test_checker_scaling(benchmark):
    rows, race, speedup, memory, soak = benchmark.pedantic(
        run_all, args=(False,), rounds=1, iterations=1
    )
    assert failures(speedup, SPEEDUP_FLOOR, memory, soak) == []
    report_all(rows, race, memory, soak)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI sweep: fewer sizes, relaxed speedup floor, and the "
        "9 006-op soak only",
    )
    args = parser.parse_args(argv)
    floor = SMOKE_SPEEDUP_FLOOR if args.smoke else SPEEDUP_FLOOR

    rows, race, speedup, memory, soak = run_all(args.smoke)
    for row in rows + race + memory + soak:
        print(row)
    print(f"recursion limit {sys.getrecursionlimit()}; speedup over the "
          f"reference at n={RACE_AT}: {speedup:.1f}x (floor {floor}x); "
          f"peak RSS at n={MEMORY_AT}: {memory_at(memory)} MB "
          f"(bound {MEMORY_BOUND_MB} MB)")
    broken = failures(speedup, floor, memory, soak)
    for line in broken:
        print(f"FAIL: {line}", file=sys.stderr)
    if broken:
        return 1
    if not args.smoke:
        report_all(rows, race, memory, soak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
