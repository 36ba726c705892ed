"""Load generation commands: ``load run/report/compare``."""

from __future__ import annotations

import argparse
import asyncio
import sys


def cmd_load_run(args: argparse.Namespace) -> int:
    from repro.load import (
        LoadEngineError,
        Scenario,
        ScenarioError,
        run_find_max,
        run_scenario,
        write_bench_json,
    )
    from repro.load.report import render_report

    try:
        scenario = Scenario.load(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None:
        from repro.load.engine import _scenario_dict

        scenario = Scenario.from_dict(
            {**_scenario_dict(scenario), "workers": args.workers}
        )
    try:
        if args.find_max:
            result = asyncio.run(
                run_find_max(scenario, args.out, quiet=args.quiet)
            )
            if result.max_rate is not None:
                print(f"max sustainable rate: {result.max_rate:.1f} ops/s "
                      f"({result.iterations} probes in "
                      f"[{result.low:g}, {result.high:g}])")
            else:
                print(f"no probe passed the SLO in "
                      f"[{result.low:g}, {result.high:g}] "
                      f"({result.iterations} probes)")
            if result.best is not None and not args.quiet:
                print()
                print(render_report(result.best))
            metrics = result.metrics()
            ok = result.max_rate is not None
        else:
            report = asyncio.run(
                run_scenario(scenario, args.out, quiet=args.quiet)
            )
            print(render_report(report))
            metrics = report.metrics()
            ok = report.ok
    except LoadEngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bench_json:
        bench = f"load_{scenario.name}" + ("_findmax" if args.find_max else "")
        write_bench_json(
            args.bench_json, bench, scenario.describe(), metrics,
            notes="repro load run --find-max" if args.find_max
            else "repro load run",
        )
        print(f"wrote {args.bench_json}")
    return 0 if ok else 1


def cmd_load_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.load import load_bench_json
    from repro.load.report import render_bench

    try:
        payload = load_bench_json(args.bench)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_bench(payload))
    return 0


def cmd_load_compare(args: argparse.Namespace) -> int:
    from repro.load import load_bench_json
    from repro.load.report import render_compare

    try:
        a = load_bench_json(args.a)
        b = load_bench_json(args.b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_compare(args.a, a, args.b, b))
    return 0


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_load = sub.add_parser(
        "load", help="coordinated-omission-free load generation "
        "(docs/LOAD.md)")
    load_sub = p_load.add_subparsers(dest="load_command", required=True)

    l_run = load_sub.add_parser(
        "run", help="run a scenario against a live stack; exit 0 iff "
        "the SLO gate passes")
    l_run.add_argument("--scenario", required=True,
                       help="scenario JSON file (benchmarks/scenarios/)")
    l_run.add_argument("--workers", type=int, default=None,
                       help="override the scenario's worker count, one "
                       "site each")
    l_run.add_argument("--out", default=None,
                       help="write the merged history the verdict was "
                       "computed on to DIR/history.json (per probe, "
                       "DIR/probe_<i>/history.json, with --find-max)",
                       metavar="DIR")
    l_run.add_argument("--bench-json", default=None, metavar="FILE",
                       help="also write the machine-readable BENCH result")
    l_run.add_argument("--find-max", action="store_true",
                       help="binary-search the max sustainable total rate "
                       "meeting the scenario's SLO instead of one run")
    l_run.add_argument("--quiet", action="store_true",
                       help="suppress progress chatter")
    l_run.set_defaults(func=cmd_load_run)

    l_report = load_sub.add_parser(
        "report", help="pretty-print a BENCH_*.json result file")
    l_report.add_argument("bench", help="BENCH result file")
    l_report.add_argument("--json", action="store_true")
    l_report.set_defaults(func=cmd_load_report)

    l_compare = load_sub.add_parser(
        "compare", help="diff the shared metrics of two BENCH files")
    l_compare.add_argument("a", help="baseline BENCH file")
    l_compare.add_argument("b", help="candidate BENCH file")
    l_compare.set_defaults(func=cmd_load_compare)
