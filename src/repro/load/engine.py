"""The scenario engine: stand the stack up, fan workers out, judge SLOs.

``run_scenario`` owns the whole experiment for one scenario file:

1. **Target**: start the real stack in-process through
   :class:`~repro.net.local.LocalStack` — a single server or a ring of
   them (each on its own skewed clock, optionally with SWIM agents for
   fault phases);
2. **Seed**: write every key in the workload's key space once through
   an engine-owned site, so no read ever depends on a server's
   initial value;
3. **Workers**: write one config JSON per worker (the scenario's total
   offered rate divided across them), spawn
   ``python -m repro.load.worker`` subprocesses, and give them a shared
   wall-clock start barrier so their open-loop schedules line up;
4. **Faults**: a phase tagged ``"fault": "kill-primary"`` aborts the
   primary of the hottest key mid-phase
   (:meth:`~repro.net.local.LocalStack.kill_primary`, the failover
   soak's own sequence) and reports its time-to-detect /
   time-to-recover;
5. **Merge**: fold the workers' histograms (bucket-exact
   :meth:`~repro.load.hdr.LatencyHistogram.merge`), on-time counters,
   and traces into one report; the merged history (seed + workers +
   recovery probes) must pass the offline timed checkers;
6. **SLO gate**: evaluate the scenario's SLO over the measured phases
   and report every check with its bound and actual.

``run_find_max`` wraps that in a binary search over the total offered
rate: the highest rate whose probe run passes the SLO is the measured
max sustainable throughput — the paper's currency/performance frontier
as a number.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.load.arrivals import scale_arrivals
from repro.load.scenario import PhaseSpec, Scenario
from repro.load.worker import PhaseStats
from repro.load.workload import key_name, make_workload
from repro.net.local import FaultOutcome, LocalStack, judge, merge_history

#: Site id of the engine's own router (seeding + recovery probes);
#: workers get ``WORKER_SITE_BASE + index``.  Distinct sites keep every
#: value factory's outputs globally unique.
SEED_SITE = 999
WORKER_SITE_BASE = 100


class LoadEngineError(RuntimeError):
    """The scenario could not be executed (distinct from an SLO miss)."""


@dataclass
class SLOCheck:
    name: str
    bound: float
    actual: Optional[float]
    ok: bool


@dataclass
class LoadReport:
    """Everything one scenario run produced; see docs/LOAD.md."""

    scenario: Dict[str, Any]
    phases: List[PhaseStats]
    measured: PhaseStats
    measured_duration: float
    workers: int
    epsilon: float
    ontime: Dict[str, Any]
    deadlines: Dict[str, Dict[str, Any]]
    offline_late: int
    offline_judged: int
    tsc_ok: Optional[bool]
    tcc_ok: Optional[bool]
    sc_ok: Optional[bool]
    unmatched_reads: int
    slo_checks: List[SLOCheck] = field(default_factory=list)
    ok: bool = False
    fault: Optional[FaultOutcome] = None
    history_ops: int = 0

    @property
    def offered_rate(self) -> float:
        if self.measured_duration <= 0:
            return 0.0
        return self.measured.offered / self.measured_duration

    @property
    def achieved_rate(self) -> float:
        if self.measured_duration <= 0:
            return 0.0
        return self.measured.completed / self.measured_duration

    @property
    def achieved_fraction(self) -> float:
        if self.measured.offered == 0:
            return 0.0
        return self.measured.completed / self.measured.offered

    @property
    def error_fraction(self) -> float:
        if self.measured.offered == 0:
            return 0.0
        return self.measured.errors / self.measured.offered

    @property
    def ontime_ratio(self) -> float:
        """Definition-1/2 on-time ratio from the merged offline verdicts
        (complete cross-worker information, unlike the per-worker online
        judges which only see their own writes)."""
        if self.offline_judged == 0:
            return 1.0
        return 1.0 - self.offline_late / self.offline_judged

    def metrics(self) -> Dict[str, Any]:
        """Flat headline metrics — the BENCH_load.json payload."""
        resp = self.measured.response
        serv = self.measured.service
        out: Dict[str, Any] = {
            "workers": self.workers,
            "measured_duration_s": round(self.measured_duration, 3),
            "ops_offered": self.measured.offered,
            "ops_completed": self.measured.completed,
            "errors": self.measured.errors,
            "offered_rate": round(self.offered_rate, 3),
            "achieved_rate": round(self.achieved_rate, 3),
            "achieved_fraction": round(self.achieved_fraction, 4),
            "error_fraction": round(self.error_fraction, 4),
            "p50_response_s": resp.quantile(0.5),
            "p99_response_s": resp.quantile(0.99),
            "p999_response_s": resp.quantile(0.999),
            "p50_service_s": serv.quantile(0.5),
            "p99_service_s": serv.quantile(0.99),
            "p999_service_s": serv.quantile(0.999),
            "ontime_ratio": round(self.ontime_ratio, 4),
            "reads_judged_offline": self.offline_judged,
            "reads_late_offline": self.offline_late,
            "ontime_ratio_online": self.ontime.get("ontime_ratio"),
            "epsilon_s": round(self.epsilon, 6),
            "tsc": self.tsc_ok,
            "tcc": self.tcc_ok,
            "sc": self.sc_ok,
            "unmatched_reads": self.unmatched_reads,
            "history_ops": self.history_ops,
            "slo_ok": self.ok,
        }
        if self.deadlines:
            out["deadlines"] = {
                name: {
                    "ontime_ratio": summary.get("ontime_ratio"),
                    "reads_late": summary.get("reads_late"),
                    "delta": summary.get("delta"),
                }
                for name, summary in sorted(self.deadlines.items())
            }
        if self.fault is not None:
            out["fault"] = self.fault.to_dict()
        return out


@dataclass
class FindMaxResult:
    low: float
    high: float
    iterations: int
    max_rate: Optional[float]
    frontier: List[Dict[str, Any]]
    best: Optional[LoadReport]

    def metrics(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "find_max_low": self.low,
            "find_max_high": self.high,
            "find_max_iterations": self.iterations,
            "max_sustainable_rate": (
                round(self.max_rate, 3) if self.max_rate is not None else None
            ),
            "frontier": self.frontier,
        }
        if self.best is not None:
            out["at_max"] = self.best.metrics()
        return out


# -- merging helpers ------------------------------------------------------


def _merge_ontime(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged = {
        "reads_on_time": 0, "reads_late": 0, "reads_unjudged": 0,
        "writes": 0, "delta": None, "epsilon": 0.0,
    }
    for s in summaries:
        merged["reads_on_time"] += int(s.get("reads_on_time", 0))
        merged["reads_late"] += int(s.get("reads_late", 0))
        merged["reads_unjudged"] += int(s.get("reads_unjudged", 0))
        merged["writes"] += int(s.get("writes", 0))
        merged["delta"] = s.get("delta", merged["delta"])
        merged["epsilon"] = max(merged["epsilon"], float(s.get("epsilon", 0.0)))
    judged = merged["reads_on_time"] + merged["reads_late"]
    merged["ontime_ratio"] = (
        merged["reads_on_time"] / judged if judged else 1.0
    )
    return merged


def _python_env() -> Dict[str, str]:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src if not existing else os.pathsep.join([src, existing])
    )
    return env


# -- the engine -----------------------------------------------------------


async def _run_scenario_async(
    scenario: Scenario, out_dir: str, *, quiet: bool = False
) -> LoadReport:
    from repro.core.io import load_history
    from repro.sim.trace import TraceRecorder, UniqueValueFactory

    target = scenario.target
    ring_target = target.kind == "ring"
    recorder = TraceRecorder()
    values = UniqueValueFactory()
    workload = make_workload(scenario.workload)
    keys = workload.sampler.keys()

    cluster_config = None
    if ring_target and target.cluster:
        from repro.cluster import ClusterConfig

        cluster_config = ClusterConfig(
            probe_period=target.probe_period,
            suspect_timeout=target.suspect_timeout,
            seed=scenario.seed,
        )
    procs: List[Any] = []
    fault: Optional[FaultOutcome] = None
    # -- 1. target --------------------------------------------------------
    async with LocalStack(
        servers=target.servers if ring_target else 1,
        replicas=target.replicas if ring_target else None,
        part_power=target.part_power,
        propagation="none" if ring_target else target.propagation,
        server_skew=target.server_skew,
        cluster=cluster_config,
    ) as stack:
        try:
            # -- 2. seed ------------------------------------------------------
            router_options = {
                "write_quorum": target.write_quorum,
                "read_policy": target.read_policy,
                "pipeline_depth": target.pipeline_depth,
            }
            seeder = await stack.connect(
                SEED_SITE, delta=scenario.delta, recorder=recorder,
                **(router_options if ring_target else {}),
            )
            for key in keys:
                await seeder.write(key, values.next_value(SEED_SITE))
            endpoints = stack.endpoints

            # -- 3. workers ---------------------------------------------------
            fault_phase: Optional[PhaseSpec] = None
            fault_offset = 0.0
            offset = 0.0
            for phase in scenario.phases:
                if phase.fault is not None:
                    fault_phase = phase
                    fault_offset = offset + phase.fault_at * phase.duration
                offset += phase.duration
            grace = 1.5 + 0.25 * scenario.workers
            start_at = time.time() + grace
            env = _python_env()
            out_paths: List[str] = []
            trace_paths: List[str] = []
            for index in range(scenario.workers):
                config = {
                    "schema": 1,
                    "worker_id": index,
                    "site": WORKER_SITE_BASE + index,
                    "seed": scenario.seed + index,
                    "delta": scenario.delta,
                    "skew": scenario.client_skew,
                    "max_concurrency": scenario.max_concurrency,
                    "op_retries": scenario.op_retries,
                    "start_at": start_at,
                    "workload": scenario.workload,
                    "phases": [
                        {
                            "name": p.name,
                            "duration": p.duration,
                            "arrivals": scale_arrivals(
                                p.arrivals, 1.0 / scenario.workers
                            ),
                            "measure": p.measure,
                        }
                        for p in scenario.phases
                    ],
                    "target": (
                        {
                            "kind": "ring",
                            "ring": stack.ring.as_dict(),
                            "endpoints": {
                                str(d): [h, p] for d, (h, p) in endpoints.items()
                            },
                            "write_quorum": target.write_quorum,
                            "read_policy": target.read_policy,
                            "pipeline_depth": target.pipeline_depth,
                            "batch": target.batch,
                            "epoch_watch_period": (
                                target.probe_period if target.cluster else None
                            ),
                        }
                        if ring_target
                        else {
                            "kind": "server",
                            "host": endpoints[0][0],
                            "port": endpoints[0][1],
                            "pipeline_depth": target.pipeline_depth,
                            "batch": target.batch,
                        }
                    ),
                    "trace_path": os.path.join(out_dir, f"trace_{index}.json"),
                    "out_path": os.path.join(out_dir, f"result_{index}.json"),
                }
                config_path = os.path.join(out_dir, f"worker_{index}.json")
                with open(config_path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh, indent=1)
                out_paths.append(config["out_path"])
                trace_paths.append(config["trace_path"])
                stderr_path = os.path.join(out_dir, f"worker_{index}.err")
                stderr_fh = open(stderr_path, "wb")
                try:
                    proc = await asyncio.create_subprocess_exec(
                        sys.executable, "-m", "repro.load.worker",
                        "--config", config_path,
                        env=env,
                        stdout=asyncio.subprocess.DEVNULL,
                        stderr=stderr_fh,
                    )
                finally:
                    stderr_fh.close()
                procs.append((proc, stderr_path))

            # -- 4. fault -----------------------------------------------------
            if fault_phase is not None:
                fault_wall = start_at + fault_offset
                await asyncio.sleep(max(0.0, fault_wall - time.time()))
                fault = await stack.kill_primary(
                    keys[0],
                    lambda: seeder.write(keys[0], values.next_value(SEED_SITE)),
                )
                if not quiet:
                    print(f"[load] killed device {fault.killed_device} "
                          f"(primary of {keys[0]}) mid-run")

            # -- 5. wait for the workers --------------------------------------
            budget = grace + scenario.total_duration() + 60.0
            for proc, stderr_path in procs:
                try:
                    await asyncio.wait_for(proc.wait(), timeout=budget)
                except asyncio.TimeoutError:
                    proc.kill()
                    raise LoadEngineError(
                        f"worker did not finish within {budget:.0f}s "
                        f"(stderr: {stderr_path})"
                    )

            if ring_target:
                await seeder.placement.drain()
        finally:
            for proc, _stderr in procs:
                if proc.returncode is None:
                    try:
                        proc.kill()
                    except ProcessLookupError:
                        pass

    # -- 6. merge + judge -------------------------------------------------
    results: List[Dict[str, Any]] = []
    for (proc, stderr_path), out_path in zip(procs, out_paths):
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            result = None
        if result is None or "error" in (result or {}):
            tail = ""
            try:
                with open(stderr_path, "r", encoding="utf-8") as fh:
                    tail = fh.read()[-2000:]
            except OSError:
                pass
            detail = (result or {}).get("error", "no result file")
            raise LoadEngineError(
                f"worker failed: {detail}\n--- stderr tail ---\n{tail}"
            )
        results.append(result)

    merged_phases: List[PhaseStats] = []
    for number, phase in enumerate(scenario.phases):
        agg = PhaseStats(phase.name, phase.measure)
        for result in results:
            agg.merge(PhaseStats.from_dict(result["phases"][number]))
        merged_phases.append(agg)
    measured = PhaseStats("measured", True)
    measured_duration = 0.0
    for phase, agg in zip(scenario.phases, merged_phases):
        if phase.measure:
            measured.merge(agg)
            measured_duration += phase.duration

    ontime = _merge_ontime([r.get("ontime", {}) for r in results])
    deadline_names = sorted(
        {name for r in results for name in r.get("deadlines", {})}
    )
    deadlines = {
        name: _merge_ontime(
            [r["deadlines"][name] for r in results if name in r.get("deadlines", {})]
        )
        for name in deadline_names
    }
    epsilon = max(
        [float(r.get("epsilon_bound", 0.0)) for r in results]
        + [seeder.epsilon_bound]
    )

    op_lists = [list(recorder.operations)]
    for trace_path in trace_paths:
        op_lists.append(list(load_history(trace_path, validate=False).operations))
    history, unmatched = merge_history(op_lists)
    tsc, tcc, sc, verdicts = judge(history, scenario.delta, epsilon)
    offline_late = sum(1 for v in verdicts if not v.on_time)

    report = LoadReport(
        scenario=scenario.describe(),
        phases=merged_phases,
        measured=measured,
        measured_duration=measured_duration,
        workers=scenario.workers,
        epsilon=epsilon,
        ontime=ontime,
        deadlines=deadlines,
        offline_late=offline_late,
        offline_judged=len(verdicts),
        tsc_ok=tsc.satisfied,
        tcc_ok=tcc.satisfied,
        sc_ok=sc.satisfied,
        unmatched_reads=unmatched,
        fault=fault,
        history_ops=len(history.operations),
    )
    report.slo_checks = _evaluate_slo(scenario, report)
    report.ok = all(c.ok for c in report.slo_checks)
    return report


def _evaluate_slo(scenario: Scenario, report: LoadReport) -> List[SLOCheck]:
    resp = report.measured.response
    serv = report.measured.service
    actuals: Dict[str, Tuple[float, bool]] = {
        # name -> (actual, ok) given the bound below
        "p50_response_s": (resp.quantile(0.5), True),
        "p99_response_s": (resp.quantile(0.99), True),
        "p999_response_s": (resp.quantile(0.999), True),
        "p99_service_s": (serv.quantile(0.99), True),
        "min_ontime_ratio": (report.ontime_ratio, False),
        "min_achieved_fraction": (report.achieved_fraction, False),
        "max_error_fraction": (report.error_fraction, True),
    }
    checks: List[SLOCheck] = []
    for name, bound in sorted(scenario.slo.items()):
        actual, upper = actuals[name]
        ok = actual <= bound if upper else actual >= bound
        checks.append(SLOCheck(name, bound, actual, ok))
    if scenario.criterion == "tsc":
        checks.append(SLOCheck("tsc_satisfied", 1.0, None, bool(report.tsc_ok)))
    elif scenario.criterion == "tcc":
        checks.append(SLOCheck("tcc_satisfied", 1.0, None, bool(report.tcc_ok)))
    return checks


def run_scenario(
    scenario: Scenario,
    out_dir: Optional[str] = None,
    *,
    workers: Optional[int] = None,
    quiet: bool = False,
) -> LoadReport:
    """Synchronous front door; ``workers`` overrides the scenario's
    worker count (the CLI's ``--workers``)."""
    if workers is not None:
        scenario = Scenario.from_dict(
            {**_scenario_dict(scenario), "workers": workers}
        )
    if out_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-load-") as tmp:
            return asyncio.run(_run_scenario_async(scenario, tmp, quiet=quiet))
    os.makedirs(out_dir, exist_ok=True)
    return asyncio.run(_run_scenario_async(scenario, out_dir, quiet=quiet))


def _scenario_dict(scenario: Scenario) -> Dict[str, Any]:
    data = scenario.describe()
    data["op_retries"] = scenario.op_retries
    data["client_skew"] = scenario.client_skew
    data["max_concurrency"] = scenario.max_concurrency
    data["find_max"] = scenario.find_max
    return data


def _probe_scenario(
    scenario: Scenario, rate: float, phase_duration: float, warmup: float
) -> Scenario:
    """The find-max probe: same target/workload/SLO, two fixed phases."""
    base = _scenario_dict(scenario)
    base["name"] = f"{scenario.name}@{rate:g}ops"
    base["phases"] = [
        {
            "name": "warmup", "duration": warmup,
            "arrivals": {"kind": "fixed", "rate": max(rate / 2.0, 1.0)},
            "measure": False,
        },
        {
            "name": "steady", "duration": phase_duration,
            "arrivals": {"kind": "poisson", "rate": rate},
            "measure": True,
        },
    ]
    return Scenario.from_dict(base)


def run_find_max(
    scenario: Scenario,
    out_dir: Optional[str] = None,
    *,
    quiet: bool = False,
) -> FindMaxResult:
    """Binary-search the highest total offered rate meeting the SLO."""
    fm = scenario.find_max or {}
    low = float(fm.get("low", 10.0))
    high = float(fm.get("high", 500.0))
    iterations = int(fm.get("iterations", 5))
    phase_duration = float(fm.get("phase_duration", 3.0))
    warmup = float(fm.get("warmup", 1.0))
    if not 0 < low < high:
        raise LoadEngineError(f"find_max needs 0 < low < high, got [{low}, {high}]")

    frontier: List[Dict[str, Any]] = []
    best: Optional[LoadReport] = None
    max_rate: Optional[float] = None
    lo, hi = low, high
    for iteration in range(iterations):
        rate = (lo + hi) / 2.0 if iteration else hi
        probe = _probe_scenario(scenario, rate, phase_duration, warmup)
        probe_dir = (
            os.path.join(out_dir, f"probe_{iteration}") if out_dir else None
        )
        report = run_scenario(probe, probe_dir, quiet=True)
        row = {
            "rate": round(rate, 2),
            "ok": report.ok,
            "achieved_rate": round(report.achieved_rate, 2),
            "p99_response_s": report.measured.response.quantile(0.99),
            "ontime_ratio": round(report.ontime_ratio, 4),
            "failed": [c.name for c in report.slo_checks if not c.ok],
        }
        frontier.append(row)
        if not quiet:
            verdict = "pass" if report.ok else f"fail ({row['failed']})"
            print(f"[find-max] {rate:8.1f} ops/s -> {verdict}")
        if report.ok:
            if max_rate is None or rate > max_rate:
                max_rate, best = rate, report
            lo = rate
        else:
            hi = rate
        if hi - lo < max(1.0, 0.02 * high):
            break
    return FindMaxResult(
        low=low, high=high, iterations=len(frontier),
        max_rate=max_rate, frontier=frontier, best=best,
    )
