#!/usr/bin/env python3
"""benchmarks/layers: one checked, closed-loop benchmark of the live stack.

    python benchmarks/layers/run.py [--seed N] [--workload NAME] [--smoke] [--out FILE]
    python benchmarks/layers/run.py compare BASE.json NEW.json
    python benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs the four workloads (5 untraced repetitions each,
interleaved, every one in a fresh process), then per workload one traced
repetition, one harness-only repetition and one verification pass;
prints every metric by name with its unit and the per-layer bill; writes
one results JSON; exits non-zero if any correctness gate fails.

The third form is the one ``BENCHMARK.json`` registers: one workload,
measuring for S seconds in all (5 repetitions of S/5), whose last line
of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import compare  # noqa: E402
import report  # noqa: E402
from workloads import BY_NAME, VERIFY_OPS, WORKLOADS, Workload  # noqa: E402

REPS = 5
#: An op-count-bound repetition still running after this long is aborted
#: and the operations it never reached count as failed.
ABORT_SECONDS = 60.0
#: The traced repetition runs a third of the work of an untraced one.
TRACED_SHARE = 1.0 / 3.0
SMOKE_SHARE = 0.1
DEFAULT_SEED = 14


class BenchmarkError(Exception):
    """The benchmark could not produce a result (not: a gate failed)."""


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_job(spec: Workload, mode: str, seed: int, *, measured: int, warmup: int,
            time_limit: float, time_bound: bool) -> Dict[str, Any]:
    """One repetition in a fresh child process; returns its JSON result."""
    job = {
        "workload": spec.name, "mode": mode, "seed": seed,
        "measured_steps": measured, "warmup_steps": warmup,
        "time_limit": time_limit, "time_bound": time_bound,
        # Below this many steps a time-bound window keeps going: the floor
        # is the smoke size, enough for every layer to have been exercised.
        "min_steps": min(measured, max(1, int(spec.measured * SMOKE_SHARE))),
        "spawned_at": time.time(), "out_dir": OUT,
        # Names the child's store directory, recovery copy and fsync probe.
        "scratch": f"{spec.name}_{os.getpid()}_{time.monotonic_ns()}",
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every child
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(job)],
            env=env, capture_output=True, text=True, timeout=time_limit + 90.0,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{spec.name}/{mode}: child still running after "
                             f"{exc.timeout:.0f} s, killed") from None
    finally:
        # A child that died may have left its scratch files behind.
        for kind in ("store", "recover"):
            shutil.rmtree(os.path.join(OUT, f"{kind}_{job['scratch']}"),
                          ignore_errors=True)
        try:
            os.remove(os.path.join(OUT, f"probe_{job['scratch']}"))
        except FileNotFoundError:
            pass
    if done.returncode != 0:
        raise BenchmarkError(
            f"{spec.name}/{mode}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _steps(spec: Workload, share: float) -> Dict[str, int]:
    return {"measured": max(1, int(spec.measured * share)),
            "warmup": int(spec.warmup * share)}


def extra_passes(spec: Workload, seed: int, share: float, time_limit: float,
                 time_bound: bool, traced: bool) -> Dict[str, Any]:
    """The verification pass, and with ``traced`` the traced and harness runs."""
    raw: Dict[str, Any] = {}
    if traced:
        for mode in ("traced", "harness"):
            raw[mode] = run_job(spec, mode, seed, **_steps(spec, share),
                                time_limit=time_limit, time_bound=time_bound)
    raw["verify"] = run_job(
        spec, "verify", seed,
        measured=VERIFY_OPS // (spec.sites * spec.ops_per_step), warmup=0,
        time_limit=ABORT_SECONDS, time_bound=False)
    return raw


def environment() -> Dict[str, Any]:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                              capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        head = ""
    return {"git_head": head or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def print_summary(spec: Workload, summary: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    out = sys.stdout
    out.write(f"\n== {spec.name}: {spec.why}\n")
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark[section]:
            entry = summary[section].get(metric["name"])
            if entry is None:
                continue  # a per-layer metric of a pass this run left out
            note = ""
            if entry.get("pooled"):
                note = f"  (p{entry['pctl'] * 100:g} of {entry['samples']} pooled samples)"
            elif report.spread(entry.get("reps", ())) is not None:
                note = (f"  (median of {len(entry['reps'])}, "
                        f"spread {report.spread(entry['reps']):.3f})")
            if "as_measured" in entry:
                note += f"  (as the clocks read: {entry['as_measured']:.4f})"
            out.write(f"  {metric['name']:<34} {entry['value']:>14.4f} "
                      f"{metric['unit']:<6}{note}\n")
    if "bill" in summary:
        out.write("  -- bill (us per op; the lines above the rule sum to the last)\n")
        for name, value in summary["bill"]:
            if name.startswith("cpu_us_per_op"):
                out.write(f"  {'-' * 50}\n")
            out.write(f"  {name:<34} {value:>14.2f}\n")
    for failure in summary["gates"]["failures"]:
        out.write(f"  GATE FAILED: {failure}\n")
    out.flush()


def checked(summary: Dict[str, Any], benchmark: Dict[str, Any], sections) -> Dict[str, Any]:
    """The metrics of ``sections`` in BENCHMARK.json order, as the driver
    reads them; a name without a value is an error, never a zero."""
    metrics = {}
    for section in sections:
        for metric in benchmark[section]:
            entry = summary[section].get(metric["name"])
            if entry is None:
                raise report.MissingMeasurement(
                    f"no value for {section} metric {metric['name']}")
            metrics[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}
    return metrics


def run_driver(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """One workload for ``--seconds`` in all; last stdout line is the result."""
    spec = BY_NAME[args.workload]
    per_rep = args.seconds / REPS
    raw: Dict[str, Any] = {"reps": [
        run_job(spec, "rep", args.seed, **_steps(spec, 1.0),
                time_limit=per_rep, time_bound=True)
        for _ in range(REPS)
    ]}
    raw.update(extra_passes(spec, args.seed, TRACED_SHARE, per_rep,
                            time_bound=True, traced=bool(args.trace)))
    summary = report.summarise(spec, raw)
    print_summary(spec, summary, benchmark)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not summary["gates"]["failures"],
        "attempted": sum(rep["attempted"] for rep in raw["reps"]),
        "failed": sum(rep["failed"] for rep in raw["reps"]),
        "metrics": checked(summary, benchmark, (section,)),
    }))
    return 0


def run_full(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    specs = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    share = SMOKE_SHARE if args.smoke else 1.0
    reps = 1 if args.smoke else REPS
    raw: Dict[str, Dict[str, Any]] = {spec.name: {"reps": []} for spec in specs}
    # Round-robin, so drift of the machine falls on all workloads alike.
    for rep in range(reps):
        for spec in specs:
            print(f"[{spec.name}] repetition {rep + 1}/{reps}", file=sys.stderr)
            raw[spec.name]["reps"].append(run_job(
                spec, "rep", args.seed, **_steps(spec, share),
                time_limit=ABORT_SECONDS, time_bound=False))
    results: Dict[str, Any] = {
        "schema": 1, "benchmark": "benchmarks/layers",
        "mode": "smoke" if args.smoke else "full", "seed": args.seed,
        "repetitions": reps, "env": environment(), "workloads": {},
    }
    failures: List[str] = []
    for spec in specs:
        print(f"[{spec.name}] traced, harness and verification passes", file=sys.stderr)
        raw[spec.name].update(extra_passes(
            spec, args.seed, share if args.smoke else share * TRACED_SHARE,
            ABORT_SECONDS, time_bound=False, traced=True))
        summary = report.summarise(spec, raw[spec.name])
        checked(summary, benchmark, ("end_to_end", "per_layer"))
        print_summary(spec, summary, benchmark)
        summary["config"] = dict(vars(spec))
        results["workloads"][spec.name] = summary
        failures += [f"{spec.name}: {f}" for f in summary["gates"]["failures"]]
    out_path = args.out or os.path.join(OUT, "results.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out_path}; traces in {OUT}")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark_json()
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], benchmark, sys.stdout)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition of a tenth of the work, every gate on")
    parser.add_argument("--out", help="results JSON (default: out/results.json)")
    parser.add_argument("--seconds", type=float,
                        help="driver form: measure one workload for this long in all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds is not None and (args.workload is None or args.seconds <= 0):
        parser.error("--seconds needs --workload and a positive duration")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.seconds is not None:
            return run_driver(args, benchmark)
        return run_full(args, benchmark)
    except (BenchmarkError, report.MissingMeasurement) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
