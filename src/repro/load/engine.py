"""The scenario engine: stand the stack up, run workers on its loop, judge SLOs.

``run_scenario`` owns the whole experiment for one scenario file, all of
it on the one loop that runs the stack, so every stamp in the merged
trace comes from that loop's clock:

1. **Target**: start the real stack in-process through
   :class:`~repro.net.local.LocalStack` — a single server or a ring of
   them (each on its own skewed clock, optionally with SWIM agents for
   fault phases);
2. **Seed**: write every key in the workload's key space once through
   an engine-owned site, so no read ever depends on a server's
   initial value;
3. **Workers**: connect one site per worker (the scenario's total
   offered rate divided across them) and run every
   :class:`~repro.load.worker.LoadWorker` as a task from one
   ``loop_time()`` anchor, so their open-loop schedules line up;
4. **Faults**: a phase tagged ``"fault": "kill-primary"`` aborts the
   primary of the hottest key at its loop-clock offset from that anchor
   (:meth:`~repro.net.local.LocalStack.kill_primary`, the failover
   soak's own sequence) and reports its time-to-detect /
   time-to-recover;
5. **Judge**: the history (seed + workers + recovery probes) must pass
   the offline timed checkers;
6. **SLO gate**: evaluate the scenario's SLO over the measured phases
   and report every check with its bound and actual.

One loop keeps one set of books for all of it: every site records into
one recorder, whose listener feeds the :class:`OnlineJudges`, and every
worker counts into one :class:`~repro.load.worker.PhaseStats` per phase,
so nothing is merged across workers.

``run_find_max`` wraps that in a binary search over the total offered
rate: the highest rate whose probe run passes the SLO is the measured
max sustainable throughput — the paper's currency/performance frontier
as a number.  Both are coroutines: ``repro load run`` drives them with
``asyncio.run``, and ``repro.sim.vtime.run`` replays a seed in virtual
time.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

from repro.checkers import judge
from repro.clocks.rebase import loop_time
from repro.core.io import dump_history
from repro.core.operations import Operation
from repro.load.arrivals import make_arrivals, scale_arrivals
from repro.load.scenario import Scenario
from repro.load.worker import LoadWorker, PhasePlan, PhaseStats
from repro.load.workload import DeadlineClass, make_workload
from repro.net.client import NetError
from repro.net.local import FaultOutcome, LocalStack, merge_history
from repro.obs.instruments import TimedInstruments
from repro.obs.metrics import Registry
from repro.ring.placement import PlacementError
from repro.sim.trace import TraceRecorder, UniqueValueFactory

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
        """Definition-1/2 on-time ratio from the offline verdicts over
        the whole history (the online judges keep a bounded window of
        writes per object)."""
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


class OnlineJudges:
    """The scenario's online on-time judges: one at its Δ and one per
    deadline class.  The recorder every site records into calls
    :meth:`on_op_recorded` once per operation, so each judge sees every
    write — Definition 2's W_r is the set of *all* writes to the read's
    object, not one site's.  A read that arrives before its writer waits
    for it inside the judge (:class:`TimedInstruments`)."""

    def __init__(self, delta: float, deadlines: Sequence[DeadlineClass]) -> None:
        self.ontime = TimedInstruments(Registry(), delta)
        self.deadlines = {
            d.name: TimedInstruments(Registry(), d.delta) for d in deadlines
        }
        #: The load worker of each site, which knows a read's class.
        self.workers: Dict[int, LoadWorker] = {}

    def set_epsilon(self, epsilon: float) -> None:
        for judge in (self.ontime, *self.deadlines.values()):
            judge.epsilon = epsilon

    def on_op_recorded(self, op: Operation) -> None:
        """A write goes to every judge; a read to the Δ judge and, when
        its worker planned it in a deadline class, to that class's."""
        judges = [self.ontime]
        if op.is_write:
            judges.extend(self.deadlines.values())
        else:
            worker = self.workers.get(op.site)
            name = worker.deadline_of(op.obj) if worker is not None else None
            if name is not None:
                judges.append(self.deadlines[name])
        for judge in judges:
            judge.on_op(op)


# -- the engine -----------------------------------------------------------


async def run_scenario(
    scenario: Scenario, out_dir: Optional[str] = None, *, quiet: bool = False
) -> LoadReport:
    """Run one scenario on the running loop.  With ``out_dir`` the
    history the verdict was computed on is written there as
    ``history.json``."""
    target = scenario.target
    ring_target = target.kind == "ring"
    workload = make_workload(scenario.workload)
    keys = workload.sampler.keys()
    judges = OnlineJudges(scenario.delta, workload.deadlines)
    recorder = TraceRecorder()
    recorder.add_listener(judges.on_op_recorded)
    values = UniqueValueFactory()
    # Every worker offers its share of each phase's total rate, so they
    # all run the same plans and count into the same tallies.
    share = 1.0 / scenario.workers
    plans = [
        PhasePlan(p.name, p.duration,
                  make_arrivals(scale_arrivals(p.arrivals, share)), p.measure)
        for p in scenario.phases
    ]

    cluster_config = None
    if ring_target and target.cluster:
        from repro.cluster import ClusterConfig

        cluster_config = ClusterConfig(
            probe_period=target.probe_period,
            suspect_timeout=target.suspect_timeout,
            seed=scenario.seed,
        )
    site_options: Dict[str, Any] = {
        "delta": scenario.delta, "recorder": recorder,
        "pipeline_depth": target.pipeline_depth,
    }
    if ring_target:
        site_options.update(
            write_quorum=target.write_quorum, read_policy=target.read_policy,
        )
    fault_offset: Optional[float] = None
    offset = 0.0
    for phase in scenario.phases:
        if phase.fault is not None:
            fault_offset = offset + phase.fault_at * phase.duration
        offset += phase.duration

    # -- 1. target --------------------------------------------------------
    async with LocalStack(
        servers=target.servers if ring_target else 1,
        replicas=target.replicas if ring_target else None,
        part_power=target.part_power,
        propagation="none" if ring_target else target.propagation,
        server_skew=target.server_skew,
        cluster=cluster_config,
    ) as stack:
        # -- 2. seed ----------------------------------------------------------
        seeder = await stack.connect(SEED_SITE, **site_options)
        for key in keys:
            await seeder.write(key, values.next_value(SEED_SITE))

        # -- 3. workers, one anchor ------------------------------------------
        for index in range(scenario.workers):
            site = WORKER_SITE_BASE + index
            executor = await stack.connect(
                site, skew=scenario.client_skew, **site_options
            )
            judges.workers[site] = LoadWorker(
                executor=executor,
                workload=workload,
                phases=plans,
                site=site,
                seed=scenario.seed + index,
                values=values,
                max_concurrency=scenario.max_concurrency,
                op_retries=scenario.op_retries,
                retryable=(NetError, PlacementError),
            )
        # The residual sync error is known only after the last handshake.
        epsilon = max(site.epsilon_bound for site in stack.sites)
        judges.set_epsilon(epsilon)
        start = loop_time()
        runs: List[Awaitable[Any]] = [
            w.run(start) for w in judges.workers.values()
        ]

        # -- 4. fault ---------------------------------------------------------
        async def kill_primary() -> FaultOutcome:
            await asyncio.sleep(start + fault_offset - loop_time())
            outcome = await stack.kill_primary(
                keys[0],
                lambda: seeder.write(keys[0], values.next_value(SEED_SITE)),
            )
            if not quiet:
                print(f"[load] killed device {outcome.killed_device} "
                      f"(primary of {keys[0]}) mid-run")
            return outcome

        if fault_offset is not None:
            runs.append(kill_primary())
        done = await asyncio.gather(*runs)
        fault = done[-1] if fault_offset is not None else None
        if ring_target:
            for site in stack.sites:
                await site.placement.drain()

    # -- 5. judge ---------------------------------------------------------
    phases = [plan.stats for plan in plans]
    measured = PhaseStats("measured", True)
    measured_duration = 0.0
    for phase, stats in zip(scenario.phases, phases):
        if phase.measure:
            measured.merge(stats)
            measured_duration += phase.duration

    history, unmatched = merge_history([recorder.operations])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        dump_history(history, os.path.join(out_dir, "history.json"))
    tsc, tcc, sc, late = judge(history, scenario.delta, epsilon)

    report = LoadReport(
        scenario=scenario.describe(),
        phases=phases,
        measured=measured,
        measured_duration=measured_duration,
        workers=scenario.workers,
        epsilon=epsilon,
        ontime=judges.ontime.summary(),
        deadlines={
            name: j.summary() for name, j in sorted(judges.deadlines.items())
        },
        offline_late=len(late),
        offline_judged=len(history.reads),
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


async def run_find_max(
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
        report = await run_scenario(probe, probe_dir, quiet=True)
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
