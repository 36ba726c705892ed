"""From the raw results of the repetitions to the named metrics and the bill.

``summarise`` turns what the child processes measured into one value per
metric name; the names, units, directions and bounds themselves live in
``BENCHMARK.json`` at the repository root and nowhere else, and
``run.py`` refuses to report a name it has no value for.

End-to-end numbers come only from the untraced repetitions, as the
median over them.  Counts (``*_per_op`` ratios of counters, hit ratios)
come from the untraced repetitions too.  Busy times come from the one
traced repetition, the harness price from the stub run, the checker
price from the verification pass.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import Workload

#: Spans that must have been seen on every workload, and on the workloads
#: with a store or a ring; a missing one is an error, never a zero.
REQUIRED_SPANS = (
    "client.read", "client.write", "cache.rule3", "cache.lookup",
    "cache.apply_still_valid", "cache.apply_write_ack",
    "framing.encode", "framing.decode",
    "transport.send", "server.execute",
)
STORE_SPANS = ("store.log_write", "store.fsync")
RING_SPANS = ("ring.read", "ring.write")

#: The layers of the bill, in the order a request meets them.
BILL_LAYERS = (
    "ring.self_us_per_op",
    "net.client.self_us_per_op",
    "engine.cache.busy_us_per_op",
    "net.framing.busy_us_per_op",
    "net.transport.busy_us_per_op",
    "engine.server.busy_us_per_op",
    "store.busy_us_per_op",
)


class MissingMeasurement(Exception):
    """A span or counter the benchmark relies on was not there."""


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def supportable(n: int, q: float) -> float:
    """The highest percentile up to ``q`` that leaves ten samples beyond
    it (never below the median)."""
    return max(0.5, min(q, 1.0 - 10.0 / n)) if n else q


def latency(per_rep: List[List[float]], q: float) -> Dict[str, Any]:
    """A latency percentile over the repetitions.

    Where every repetition has ten samples beyond ``q`` the value is the
    median of the repetitions' own percentiles, which one disturbed
    repetition cannot move.  Otherwise — an operation type the workload
    barely issues — the samples are pooled and the highest percentile
    they support is reported, with that percentile stated."""
    per_rep = [sorted(samples) for samples in per_rep]
    total = sum(len(samples) for samples in per_rep)
    if not total:
        raise MissingMeasurement("no latency samples at all")
    if all(samples and supportable(len(samples), q) == q for samples in per_rep):
        values = [percentile(samples, q) for samples in per_rep]
        return {"value": statistics.median(values), "reps": values,
                "samples": total, "pctl": q, "pooled": False}
    pooled = sorted(s for samples in per_rep for s in samples)
    at = supportable(total, q)
    return {"value": percentile(pooled, at), "reps": [],
            "samples": total, "pctl": round(at, 4), "pooled": True}


def _median_of(reps: List[Dict[str, Any]], fn) -> Dict[str, Any]:
    values = [fn(rep) for rep in reps]
    return {"value": statistics.median(values), "reps": values}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _prefix_sum(spans: Dict[str, Dict[str, Any]], prefix: str, field: str) -> float:
    return sum(e[field] for name, e in spans.items() if name.startswith(prefix))


def _served(rep: Dict[str, Any]) -> List[Dict[str, float]]:
    segments = [seg for seg in rep["segments"] if seg["ops"]]
    if not segments:
        raise MissingMeasurement(
            f"{rep['workload']}/{rep['mode']}: no operation completed in the window")
    return segments


def fair_ops_per_s(rep: Dict[str, Any]) -> float:
    """Median over the repetition's segments, in reference-machine seconds."""
    return statistics.median(seg["ops"] / seg["fair_wall_s"] for seg in _served(rep))


def fair_cpu_us_per_op(rep: Dict[str, Any]) -> float:
    return statistics.median(
        seg["fair_cpu_s"] / seg["ops"] * 1e6 for seg in _served(rep))


def total_cpu_us_per_op(rep: Dict[str, Any]) -> float:
    """Over the whole window rather than its median segment: what the
    per-span totals of the same repetition have to add up to."""
    return sum(seg["fair_cpu_s"] for seg in rep["segments"]) / rep["ops"] * 1e6


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` holds to a bound: the ones that kept
    within it over sets of ten runs of one commit (see ``diagnostics``
    for the timings that did not).  The one timing among them is the
    throughput, which in a closed loop is the end-to-end figure."""
    out = {
        "ops_per_s": _median_of(reps, fair_ops_per_s),
        "server_requests_per_op": _median_of(
            reps, lambda r: r["counts"]["server.requests"] / r["ops"]),
        "wire_bytes_per_op": _median_of(
            reps, lambda r: r["counts"]["wire.bytes"] / r["ops"]),
        "setup_s": _median_of(reps, lambda r: r["setup_s"]),
        "peak_rss_mb": _median_of(reps, lambda r: r["peak_rss_mb"]),
    }
    for entry in out.values():
        entry.setdefault("samples", len(reps))
    # As the clocks read, before the machine's speed is divided out.
    out["ops_per_s"]["as_measured"] = statistics.median(
        r["ops"] / sum(seg["wall_s"] for seg in r["segments"]) for r in reps)
    return out


def diagnostics(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Timings of the untraced repetitions that are reported, and judged
    by ``compare``, but listed with the per-layer metrics because they
    could not hold a bound over sets of ten runs of one commit on this
    shared host.  ``cpu_us_per_op`` spread 24 % of its median in one set
    of ``write_durable`` and 11 % in the next.  A 99th percentile is
    whatever the host did to the slowest hundredth (65 % on
    ``ring_mixed``, 32 % on ``read_validate``).  A median sits where two
    populations meet: hits and misses on ``read_cached`` (19 %), and on
    ``write_durable`` a read lands either beside or behind the other
    site's wave of fsyncs — 0.4 ms or 3 ms — in a mix that flips from run
    to run (118 %), while ``op_*`` and ``write_*`` there are sixteen writes
    in flight over the throughput (Little's law) and repeat its noise half
    as large again.  In a closed loop the throughput is the end-to-end
    timing; these say where it went."""
    out = {"cpu_us_per_op": _median_of(reps, fair_cpu_us_per_op)}
    out["cpu_us_per_op"]["as_measured"] = statistics.median(
        sum(seg["cpu_s"] for seg in r["segments"]) / r["ops"] * 1e6 for r in reps)
    samples = {
        "op": [rep["read_lat_us"] + rep["write_lat_us"] for rep in reps],
        "read": [rep["read_lat_us"] for rep in reps],
        "write": [rep["write_lat_us"] for rep in reps],
    }
    for kind, per_rep in samples.items():
        out[f"{kind}_p50_us"] = latency(per_rep, 0.50)
        out[f"{kind}_p99_us"] = latency(per_rep, 0.99)
    return out


def counted(spec: Workload, reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics that are ratios of counters, from the untraced reps."""

    def count(key: str):
        return lambda r: r["counts"].get(key, 0)

    def per(numerator: str, denominator: str):
        return lambda r: _ratio(
            r["counts"].get(numerator, 0), r["counts"].get(denominator, 0))

    out = {
        "engine.cache.hit_ratio": _median_of(
            reps, per("client.fresh_hits", "client.reads")),
        "engine.cache.still_valid_ratio": _median_of(
            reps, per("client.revalidated", "client.validations")),
        "engine.server.dedup_replays": _median_of(reps, count("server.dedup_replays")),
        "engine.server.writes_discarded": _median_of(
            reps, count("server.writes_discarded")),
        "net.framing.frames_per_op": _median_of(
            reps, lambda r: r["counts"]["wire.frames"] / r["ops"]),
        "net.framing.bytes_per_frame": _median_of(reps, per("wire.bytes", "wire.frames")),
        "net.client.miss_rtt_us_p50": latency([r["miss_rtt_us"] for r in reps], 0.50),
        "net.client.retries": _median_of(reps, count("client.retries")),
        "net.server.busy_sent": _median_of(reps, count("server.busy_sent")),
        "store.fsyncs_per_write": _median_of(
            reps, per("store.fsyncs", "store.wal_records")),
        "store.wal_bytes_per_write": _median_of(
            reps, per("store.wal_bytes", "store.wal_records")),
        "ring.device_requests_per_op": _median_of(
            reps, lambda r: (
                r["counts"]["client.validations"] + r["counts"]["client.fetches"]
                + r["counts"]["client.writes"]
            ) / r["ops"] if spec.ring else 0.0),
        "ring.replica_acks_per_write": _median_of(
            reps, per("ring.replica_acks", "ring.writes")),
        "obs.ontime_judge_us_per_op": _median_of(
            reps, lambda r: r["on_time"]["seconds"] / r["trace_ops"] * 1e6),
    }
    for field in ("repairs_queued", "repairs_late", "fallback_reads", "quorum_failures"):
        out[f"ring.{field}"] = _median_of(reps, count(f"ring.{field}"))
    attempted = sum(r["attempted"] for r in reps)
    reads = sum(r["on_time"]["reads"] for r in reps)
    late = sum(r["on_time"]["late"] + r["on_time"]["unjudged"] for r in reps)
    out["failed_op_share"] = {"value": sum(r["failed"] for r in reps) / attempted}
    out["late_read_share"] = {"value": _ratio(late, reads)}
    return out


def traced_layers(
    spec: Workload, traced: Dict[str, Any], harness: Dict[str, Any],
    untraced_cpu_us_per_op: float,
) -> Tuple[Dict[str, Dict[str, Any]], List[Tuple[str, float]]]:
    """Busy-time metrics of the traced repetition, and the itemised bill."""
    spans = traced["spans"]
    ops = traced["ops"]
    required = REQUIRED_SPANS + (STORE_SPANS if spec.store else ()) + (
        RING_SPANS if spec.ring else ())
    missing = [name for name in required if not spans.get(name, {}).get("calls")]
    if missing:
        raise MissingMeasurement(
            f"{spec.name}: the traced run saw no {', '.join(missing)} span; the "
            f"surface the benchmark wraps has moved"
        )

    def calls(prefix: str) -> float:
        return _prefix_sum(spans, prefix, "calls")

    def self_us(prefix: str) -> float:
        return _prefix_sum(spans, prefix, "self_us")

    def busy_list(name: str) -> List[float]:
        return spans.get(name, {}).get("busy_us", [])

    fsyncs, snapshots = busy_list("store.fsync"), busy_list("store.snapshot")
    logged = traced["counts"].get("store.wal_records", 0)
    m = {
        "engine.cache.busy_us_per_op": self_us("cache.") / ops,
        "engine.cache.calls_per_op": calls("cache.") / ops,
        "engine.server.busy_us_per_call": _ratio(self_us("server."), calls("server.")),
        "engine.server.busy_us_per_op": self_us("server.") / ops,
        "engine.server.calls_per_op": calls("server.") / ops,
        "net.framing.encode_us_per_frame": _ratio(
            self_us("framing.encode"), calls("framing.encode")),
        "net.framing.decode_us_per_frame": _ratio(
            self_us("framing.decode"), calls("framing.decode")),
        "net.framing.busy_us_per_op": self_us("framing.") / ops,
        "net.transport.send_us_per_frame": _ratio(
            self_us("transport."), calls("transport.")),
        "net.transport.busy_us_per_op": self_us("transport.") / ops,
        "net.client.self_us_per_op": self_us("client.") / ops,
        "ring.self_us_per_op": self_us("ring.") / ops,
        "store.busy_us_per_op": self_us("store.") / ops,
        # log_write / log_writes / snapshot took their own CPU readings;
        # what their wall time has beyond that is the loop blocked in fsync.
        "store.blocked_us_per_op": max(
            0.0, self_us("store.") - _prefix_sum(spans, "store.", "cpu_us")) / ops,
        "store.log_us_per_write": _ratio(self_us("store.log_write"), logged),
        "store.fsync_us_p50": percentile(fsyncs, 0.50) if fsyncs else 0.0,
        "store.fsync_us_p99": percentile(fsyncs, supportable(len(fsyncs), 0.99))
        if fsyncs else 0.0,
        "store.snapshots": float(len(snapshots)),
        "store.snapshot_ms_p50": percentile(snapshots, 0.50) / 1e3 if snapshots else 0.0,
    }
    traced_cpu = total_cpu_us_per_op(traced)
    m["harness.us_per_op"] = total_cpu_us_per_op(harness)
    m["harness.trace_overhead_share"] = (
        fair_cpu_us_per_op(traced) / untraced_cpu_us_per_op - 1.0)
    m["harness.machine_slowdown"] = statistics.median(
        seg["slowdown"] for seg in traced["segments"])
    m["harness.disk_slowdown"] = statistics.median(
        seg["disk_slowdown"] for seg in traced["segments"])
    bill = [(name, m[name]) for name in BILL_LAYERS]
    bill.append(("store.blocked_us_per_op", -m["store.blocked_us_per_op"]))
    bill.append(("harness.us_per_op", m["harness.us_per_op"]))
    m["net.drivers.residual_us_per_op"] = traced_cpu - sum(v for _, v in bill)
    bill.append(("net.drivers.residual_us_per_op", m["net.drivers.residual_us_per_op"]))
    bill.append(("cpu_us_per_op (traced)", traced_cpu))
    return {name: {"value": value} for name, value in m.items()}, bill


def verified(spec: Workload, verify: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    tsc = verify["tsc"]
    durability = verify.get("durability", {})
    return {name: {"value": value} for name, value in {
        "checkers.tsc_us_per_op": tsc["seconds"] / verify["trace_ops"] * 1e6,
        "checkers.unknown_verdicts": float(tsc["unknown"]),
        "store.recover_ms": durability.get("recover_ms", 0.0),
        "store.recovered_write_share": durability.get("recovered_write_share", 0.0),
    }.items()}


def gates(spec: Workload, raw: Dict[str, Any]) -> Dict[str, Any]:
    """Every correctness gate of one workload; ``failures`` lists the broken ones."""
    runs = list(raw["reps"]) + [raw[k] for k in ("traced", "verify") if k in raw]
    failures: List[str] = []
    failed = sum(r["failed"] for r in runs)
    if failed:
        failures.append(f"{failed} operations raised, were refused or timed out")
    late = sum(r["on_time"]["late"] + r["on_time"]["unjudged"] for r in runs)
    if late:
        failures.append(f"{late} reads judged late or unjudged at delta={spec.delta}")
    bad = sum(r["bad_values"] for r in runs)
    if bad:
        failures.append(f"{bad} reads returned a value nobody wrote")
    verify = raw.get("verify")
    if verify is not None:
        tsc = verify["tsc"]
        if tsc["unknown"]:
            failures.append("check_tsc gave no verdict (unknown) on the verification trace")
        elif not tsc["satisfied"]:
            failures.append(f"check_tsc violated: {tsc['violation']}")
        if spec.store and verify["durability"]["recovered_write_share"] != 1.0:
            failures.append(
                "durability: only "
                f"{verify['durability']['recovered_write_share']:.4f} of the "
                "acknowledged writes survived losing the unsynced log tail"
            )
    return {
        "failed_ops": failed, "late_or_unjudged_reads": late, "bad_values": bad,
        "tsc_satisfied": None if verify is None else bool(verify["tsc"]["satisfied"]),
        "failures": failures,
    }


def summarise(spec: Workload, raw: Dict[str, Any]) -> Dict[str, Any]:
    """``raw`` holds ``reps`` and optionally ``traced`` + ``harness`` and
    ``verify``; the summary holds whatever those allow."""
    summary: Dict[str, Any] = {
        "end_to_end": end_to_end(raw["reps"]),
        "per_layer": {**diagnostics(raw["reps"]), **counted(spec, raw["reps"])},
        "gates": gates(spec, raw),
    }
    if "traced" in raw:
        layers, bill = traced_layers(
            spec, raw["traced"], raw["harness"],
            summary["per_layer"]["cpu_us_per_op"]["value"],
        )
        summary["per_layer"].update(layers)
        summary["bill"] = bill
    if "verify" in raw:
        summary["per_layer"].update(verified(spec, raw["verify"]))
    return summary


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median, as the driver computes it."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else None
