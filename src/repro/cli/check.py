"""Trace analysis commands: ``check``, ``threshold``, ``render``, ``figures``."""

from __future__ import annotations

import argparse
import math
import sys

from repro.analysis import print_table
from repro.checkers import (
    SearchBudgetExceeded,
    check_cc,
    check_lin,
    check_sc,
    check_tcc,
    check_tsc,
    threshold_report,
)
from repro.checkers.constraint import BRANCH_BUDGET
from repro.core.io import load_history
from repro.core.render import render_serialization, render_timeline

CHECKERS = {
    "lin": lambda h, a: check_lin(h, budget=a.budget),
    "sc": lambda h, a: check_sc(h, budget=a.budget),
    "cc": lambda h, a: check_cc(h, budget=a.budget),
    "tsc": lambda h, a: check_tsc(h, a.delta, a.epsilon, budget=a.budget),
    "tcc": lambda h, a: check_tcc(h, a.delta, a.epsilon, budget=a.budget),
}


def cmd_check(args: argparse.Namespace) -> int:
    history = load_history(args.trace)
    if args.criterion in ("tsc", "tcc") and args.delta is None:
        print("error: --delta is required for tsc/tcc", file=sys.stderr)
        return 2
    try:
        result = CHECKERS[args.criterion](history, args)
    except SearchBudgetExceeded as exc:
        if args.json:
            import json

            print(json.dumps({
                "criterion": args.criterion,
                "satisfied": None,
                "unknown": True,
                "violation": None,
                "budget": exc.budget,
            }))
        else:
            print(f"{args.criterion.upper()}: UNKNOWN")
            print(f"  {exc}")
        return 3
    if args.json:
        import json

        payload = {
            "criterion": args.criterion,
            "satisfied": result.satisfied,
            "unknown": result.unknown,
            "violation": result.violation,
            "parameters": result.parameters,
        }
        if args.stats:
            payload["states_explored"] = result.states_explored
        print(json.dumps(payload))
        return 0 if result.satisfied else 1
    verdict = "SATISFIED" if result.satisfied else "VIOLATED"
    print(f"{args.criterion.upper()}: {verdict}")
    if result.violation:
        print(f"  {result.violation}")
    if args.stats:
        print("search stats:")
        print(f"  states: {result.states_explored} (constraint-engine "
              "branch nodes)")
    if args.render:
        print()
        print(render_timeline(history))
    if args.witness and result.satisfied:
        if result.witness is not None:
            print("\nwitness serialization:")
            print(render_serialization(result.witness))
        if result.site_witnesses:
            for site, witness in sorted(result.site_witnesses.items()):
                print(f"\nS_{site}:")
                print(render_serialization(witness))
    return 0 if result.satisfied else 1


def cmd_threshold(args: argparse.Namespace) -> int:
    history = load_history(args.trace)
    report = threshold_report(history, epsilon=args.epsilon)

    def show(value):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return "unknown"
        return value

    if args.json:
        import json

        def jsonable(value):
            if isinstance(value, float) and math.isnan(value):
                return None  # budget-exhausted threshold: unknown
            return value

        print(json.dumps({
            "sc": report.sc_holds,
            "cc": report.cc_holds,
            "unknown": report.unknown,
            "timed_threshold": report.timed_threshold,
            "tsc_threshold": jsonable(report.tsc_threshold),
            "tcc_threshold": jsonable(report.tcc_threshold),
            "epsilon": report.epsilon,
        }))
        return 0
    rows = [
        {"quantity": "SC holds", "value": show(report.sc_holds)},
        {"quantity": "CC holds", "value": show(report.cc_holds)},
        {"quantity": "timedness threshold", "value": report.timed_threshold},
        {"quantity": "TSC threshold (delta*)",
         "value": show(report.tsc_threshold)},
        {"quantity": "TCC threshold (delta*)",
         "value": show(report.tcc_threshold)},
    ]
    print_table(rows, title=f"thresholds of {args.trace} (epsilon={args.epsilon:g})")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    history = load_history(args.trace, validate=not args.no_validate)
    print(render_timeline(history, width=args.width))
    return 0


def _run_figures() -> int:
    from repro.checkers import tsc_threshold
    from repro.core import Serialization, min_timed_delta
    from repro.paperdata import (
        figure1,
        figure5,
        figure5_serialization,
        figure6,
        figures2_3,
    )

    rows = []
    h1 = figure1()
    rows.append({"figure": "1", "claim": "SC, CC, not LIN",
                 "holds": check_sc(h1).satisfied and check_cc(h1).satisfied
                 and not check_lin(h1).satisfied})
    sc23 = figures2_3()
    from repro.core import read_occurs_on_time

    rows.append({
        "figure": "2-3",
        "claim": "late under Def 1, on time under Def 2",
        "holds": not read_occurs_on_time(sc23.history, sc23.the_read, sc23.delta)
        and read_occurs_on_time(sc23.history, sc23.the_read, sc23.delta, sc23.epsilon),
    })
    h5 = figure5()
    s5 = Serialization(figure5_serialization(h5))
    rows.append({"figure": "5", "claim": "SC via 5(b); TSC iff delta >= 96",
                 "holds": s5.is_legal() and s5.respects_program_order()
                 and not check_tsc(h5, 50.0).satisfied
                 and check_tsc(h5, 97.0).satisfied
                 and min_timed_delta(h5) == 96.0})
    h6 = figure6()
    rows.append({"figure": "6", "claim": "CC not SC; TCC(30) fails",
                 "holds": check_cc(h6).satisfied and not check_sc(h6).satisfied
                 and not check_tcc(h6, 30.0).satisfied})
    rows.append({"figure": "4b", "claim": "TSC(0)=LIN, TSC(inf)=SC on figures",
                 "holds": all(
                     check_tsc(h, 0.0).satisfied == check_lin(h).satisfied
                     and check_tsc(h, math.inf).satisfied == check_sc(h).satisfied
                     for h in (h1, h5, h6)
                 )})
    print_table(rows, title="paper figures, re-verified")
    ok = all(row["holds"] for row in rows)
    print("\nall claims hold" if ok else "\nSOME CLAIMS FAILED")
    return 0 if ok else 1


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_check = sub.add_parser("check", help="check a recorded trace")
    p_check.add_argument("trace")
    p_check.add_argument("--criterion", choices=sorted(CHECKERS), default="sc")
    p_check.add_argument("--delta", type=float, default=None)
    p_check.add_argument("--epsilon", type=float, default=0.0)
    p_check.add_argument("--budget", type=int, default=None,
                         help="branch nodes of the constraint engine before "
                         f"giving up (default {BRANCH_BUDGET}); exhaustion "
                         "reports UNKNOWN and exits 3")
    p_check.add_argument("--stats", action="store_true",
                         help="print the branch nodes the engine used")
    p_check.add_argument("--render", action="store_true")
    p_check.add_argument("--witness", action="store_true")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable verdict on stdout")
    p_check.set_defaults(func=cmd_check)

    p_thr = sub.add_parser("threshold", help="delta thresholds of a trace")
    p_thr.add_argument("trace")
    p_thr.add_argument("--epsilon", type=float, default=0.0)
    p_thr.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    p_thr.set_defaults(func=cmd_threshold)

    p_render = sub.add_parser("render", help="draw a trace as a timeline")
    p_render.add_argument("trace")
    p_render.add_argument("--width", type=int, default=100)
    p_render.add_argument("--no-validate", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_fig = sub.add_parser("figures", help="re-verify the paper's figures")
    p_fig.set_defaults(func=lambda args: _run_figures())
