"""``run.py compare A.json B.json``: is B worse than A beyond the bounds?

For every (end-to-end metric, workload) pair the verdict is

``regressed``   B's median is worse than A's by more than the metric's
                bound in ``BENCHMARK.json``;
``unresolved``  it is not, but the repetitions of A or of B spread (first
                to third quartile, over the median) wider than the bound,
                so "no change" cannot be told from a change of that size
                — unless every repetition of B reads better than every
                repetition of A, which settles it;
``ok``          otherwise.

The timings ``BENCHMARK.json`` lists without a bound (see
``report.diagnostics``) are judged the same way under
``DIAGNOSTIC_BOUND``: ``cpu_us_per_op``, ``op_p50_us`` and ``op_p99_us``
everywhere, read and write latency on the workloads that are about that
operation type (``Workload.about``) and nowhere else.
``failed_op_share`` and ``late_read_share`` have no bound: any rise fails.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, TextIO, Tuple

from report import spread
from workloads import BY_NAME

MUST_NOT_RISE = ("failed_op_share", "late_read_share")
#: The widest bound ``BENCHMARK.json`` may state; what the timings that
#: could not hold one on this host are still held to here.
DIAGNOSTIC_BOUND = 0.25


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base if base else 0.0
    return change if better == "lower" else -change


def _all_better(base: List[float], new: List[float], better: str) -> bool:
    if not base or not new:
        return False
    return max(new) < min(base) if better == "lower" else min(new) > max(base)


def _judged(workload: str, benchmark: Dict[str, Any]) -> Iterator[Tuple[str, str, float, str]]:
    """(section, metric, bound, better) for everything held to a bound."""
    for metric in benchmark["end_to_end"]:
        yield "end_to_end", metric["name"], metric["bound"], metric["better"]
    diagnostics = ["cpu_us_per_op", "op_p50_us", "op_p99_us"]
    for kind in BY_NAME[workload].about:
        diagnostics += [f"{kind}_p50_us", f"{kind}_p99_us"]
    for name in diagnostics:
        yield "per_layer", name, DIAGNOSTIC_BOUND, "lower"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], benchmark: Dict[str, Any], out: TextIO
) -> int:
    """Print one row per pair; return the process exit code."""
    regressed = 0
    out.write(f"{'workload':<14} {'metric':<24} {'base':>12} {'new':>12} "
              f"{'ratio':>7}  verdict\n")
    for name, base_w in base["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            out.write(f"{name:<14} missing from the new results: regressed\n")
            regressed += 1
            continue
        for section, key, bound, better in _judged(name, benchmark):
            a, b = base_w[section][key], new_w[section][key]
            worse = _worse_by(a["value"], b["value"], better)
            spreads = [s for s in (spread(a["reps"]), spread(b["reps"])) if s is not None]
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif (any(s > bound for s in spreads)
                  and not _all_better(a["reps"], b["reps"], better)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            out.write(f"{name:<14} {key:<24} {a['value']:>12.4f} {b['value']:>12.4f} "
                      f"{ratio:>7.3f}  {verdict}\n")
        for key in MUST_NOT_RISE:
            a = base_w["per_layer"][key]["value"]
            b = new_w["per_layer"][key]["value"]
            verdict = "regressed" if b > a else "ok"
            regressed += b > a
            out.write(f"{name:<14} {key:<24} {a:>12.6f} {b:>12.6f} {'':>7}  {verdict}\n")
    out.write(f"{regressed} regressed\n")
    return 1 if regressed else 0


def main(argv: List[str], benchmark: Dict[str, Any], out: TextIO) -> int:
    if len(argv) != 2:
        out.write("usage: run.py compare BASE.json NEW.json\n")
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    return compare(base, new, benchmark, out)
