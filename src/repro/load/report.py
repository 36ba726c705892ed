"""Rendering and persistence of load results.

Two jobs:

* human output — :func:`render_report` turns a
  :class:`~repro.load.engine.LoadReport` into the table + SLO verdict
  block the CLI prints;
* machine output — :func:`write_bench_json` is the canonical writer for
  ``BENCH_<name>.json`` files (stable schema, version-stamped), used by
  ``repro load run --bench-json``, so a run's headline numbers are
  machine-diffable PR over PR.

The BENCH schema::

    {"schema": 1, "bench": "<name>", "created": <unix seconds>,
     "config": {...run configuration...},
     "metrics": {...flat headline metrics...},
     "notes": "..."}

``repro load report`` pretty-prints one file; ``repro load compare``
diffs the shared numeric metrics of two.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_SCHEMA = 1


def write_bench_json(
    path: str,
    bench: str,
    config: Dict[str, Any],
    metrics: Dict[str, Any],
    notes: str = "",
) -> Dict[str, Any]:
    """Write one benchmark result file (atomic; returns the payload)."""
    from repro.core.io import atomic_write_json

    payload = {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "created": time.time(),
        "config": config,
        "metrics": metrics,
        "notes": notes,
    }
    atomic_write_json(path, payload, fsync=False)
    return payload


def load_bench_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise ValueError(f"{path} is not a BENCH result file")
    return payload


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report(report: Any) -> str:
    """The CLI's human-readable view of one LoadReport."""
    lines: List[str] = []
    scenario = report.scenario
    lines.append(
        f"scenario {scenario['name']!r}: {report.workers} workers, "
        f"delta={scenario['delta']:g}s, epsilon={report.epsilon:.6f}s"
    )
    header = (
        f"{'phase':<12} {'offered':>8} {'done':>8} {'err':>5} "
        f"{'svc p50':>9} {'svc p99':>9} {'rsp p50':>9} {'rsp p99':>9} "
        f"{'rsp p99.9':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for phase in report.phases:
        mark = "" if phase.measure else "  (warmup)"
        lines.append(
            f"{phase.name:<12} {phase.offered:>8} {phase.completed:>8} "
            f"{phase.errors:>5} "
            f"{phase.service.quantile(0.5) * 1000:>8.2f}m "
            f"{phase.service.quantile(0.99) * 1000:>8.2f}m "
            f"{phase.response.quantile(0.5) * 1000:>8.2f}m "
            f"{phase.response.quantile(0.99) * 1000:>8.2f}m "
            f"{phase.response.quantile(0.999) * 1000:>9.2f}m{mark}"
        )
    lines.append("")
    lines.append(
        f"measured: offered {report.offered_rate:.1f} ops/s, achieved "
        f"{report.achieved_rate:.1f} ops/s "
        f"({report.achieved_fraction * 100:.1f}%), errors "
        f"{report.error_fraction * 100:.2f}%"
    )
    lines.append(
        f"on-time ratio (offline Definition-1/2): "
        f"{report.ontime_ratio:.4f} "
        f"({report.offline_judged - report.offline_late}/"
        f"{report.offline_judged} reads; online "
        f"{report.ontime.get('ontime_ratio', 1.0):.4f})"
    )
    for name, summary in sorted(report.deadlines.items()):
        judged = summary["reads_on_time"] + summary["reads_late"]
        lines.append(
            f"  deadline class {name!r} (delta={summary['delta']:g}s): "
            f"{summary['ontime_ratio']:.4f} on time "
            f"({summary['reads_on_time']}/{judged} judged)"
        )
    lines.append(
        f"merged history: {report.history_ops} ops, "
        f"SC {'holds' if report.sc_ok else 'VIOLATED'}, "
        f"TSC {'SATISFIED' if report.tsc_ok else 'VIOLATED'}, "
        f"TCC {'SATISFIED' if report.tcc_ok else 'VIOLATED'}"
        + (f", {report.unmatched_reads} unmatched reads dropped"
           if report.unmatched_reads else "")
    )
    if report.fault is not None:
        f = report.fault
        ttd = f"{f.time_to_detect:.3f}s" if f.time_to_detect is not None else "never"
        ttr = (f"{f.time_to_recover:.3f}s"
               if f.time_to_recover is not None else "never")
        lines.append(
            f"fault {f.fault}: killed device {f.killed_device}, detected "
            f"in {ttd}, first write re-acked in {ttr} "
            f"(bound {f.detection_bound:.3f}s), {f.promotions} promotions, "
            f"epoch {f.failover_epoch}"
        )
    if report.slo_checks:
        lines.append("")
        lines.append("SLO:")
        for check in report.slo_checks:
            actual = _fmt(check.actual) if check.actual is not None else "-"
            lines.append(
                f"  [{'PASS' if check.ok else 'FAIL'}] {check.name}: "
                f"bound {_fmt(check.bound)}, actual {actual}"
            )
        lines.append(f"SLO verdict: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)


def render_bench(payload: Dict[str, Any]) -> str:
    lines = [
        f"bench {payload.get('bench')!r} "
        f"(schema {payload.get('schema')}, created {payload.get('created')})"
    ]
    notes = payload.get("notes")
    if notes:
        lines.append(f"notes: {notes}")
    lines.append("metrics:")
    for key, value in sorted(payload.get("metrics", {}).items()):
        if isinstance(value, (dict, list)):
            lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"  {key}: {_fmt(value)}")
    return "\n".join(lines)


def compare_bench(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, Any, Any, Optional[float]]]:
    """``(metric, a, b, percent_change)`` rows over the shared numeric
    metrics of two BENCH files (change is b relative to a)."""
    rows: List[Tuple[str, Any, Any, Optional[float]]] = []
    am, bm = a.get("metrics", {}), b.get("metrics", {})
    for key in sorted(set(am) | set(bm)):
        va, vb = am.get(key), bm.get(key)
        change: Optional[float] = None
        if (
            isinstance(va, (int, float)) and isinstance(vb, (int, float))
            and not isinstance(va, bool) and not isinstance(vb, bool)
            and va
        ):
            change = (vb - va) / abs(va) * 100.0
        if not isinstance(va, (dict, list)) and not isinstance(vb, (dict, list)):
            rows.append((key, va, vb, change))
    return rows


def render_compare(
    a_path: str, a: Dict[str, Any], b_path: str, b: Dict[str, Any]
) -> str:
    lines = [
        f"comparing {a.get('bench')!r}: A={a_path}  B={b_path}",
        f"{'metric':<28} {'A':>14} {'B':>14} {'change':>9}",
    ]
    lines.append("-" * len(lines[-1]))
    for key, va, vb, change in compare_bench(a, b):
        delta = f"{change:+8.1f}%" if change is not None else "        -"
        lines.append(f"{key:<28} {_fmt(va):>14} {_fmt(vb):>14} {delta}")
    return "\n".join(lines)
