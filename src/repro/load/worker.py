"""The load worker: dispatch operations, record CO-free latencies.

One worker drives one executor (a :class:`repro.net.client.NetCacheClient`
or :class:`repro.net.ring_router.RingRouter`) through a phase plan.  The
central discipline is **intended-start anchoring**: for open-loop phases
the whole arrival schedule is computed up front, every operation is
dispatched at its intended time whether or not earlier operations have
finished, and two latencies are recorded per op —

* **service** = completion − actual start (what the server took);
* **response** = completion − *intended* start (what a user arriving at
  that moment waited, queueing included).

A stalled server therefore inflates the response tail by the length of
the stall times the number of arrivals it backed up — it cannot hide by
making the generator slow down, which is exactly the coordinated
omission failure of closed-loop harnesses (kept available as the
``closed`` arrival kind for comparison).

Run as a module (``python -m repro.load.worker --config cfg.json``) the
worker is the multi-process half of the scenario engine: it connects to
the already-running stack, waits for a shared wall-clock start barrier,
runs the plan, and writes its trace (portable history JSON) and a result
JSON (serialised histograms + on-time summaries) for the engine to merge.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.rebase import loop_time
from repro.load.arrivals import ArrivalProcess, make_arrivals
from repro.load.hdr import LatencyHistogram
from repro.load.workload import PlannedOp, WorkloadMix, make_workload

#: Result/config schema version, bumped on breaking changes.
SCHEMA = 1


class PhaseStats:
    """Counters and histograms for one phase of one worker."""

    def __init__(self, name: str, measure: bool = True) -> None:
        self.name = name
        self.measure = measure
        self.offered = 0
        self.completed = 0
        self.errors = 0
        self.errors_by_kind: Dict[str, int] = {}
        self.service = LatencyHistogram()
        self.response = LatencyHistogram()

    def record_error(self, exc: BaseException) -> None:
        self.errors += 1
        kind = type(exc).__name__
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1

    def merge(self, other: "PhaseStats") -> "PhaseStats":
        self.offered += other.offered
        self.completed += other.completed
        self.errors += other.errors
        for kind, count in other.errors_by_kind.items():
            self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + count
        self.service.merge(other.service)
        self.response.merge(other.response)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "measure": self.measure,
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "errors_by_kind": dict(sorted(self.errors_by_kind.items())),
            "service": self.service.to_dict(),
            "response": self.response.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhaseStats":
        stats = cls(data["name"], data.get("measure", True))
        stats.offered = int(data.get("offered", 0))
        stats.completed = int(data.get("completed", 0))
        stats.errors = int(data.get("errors", 0))
        stats.errors_by_kind = dict(data.get("errors_by_kind", {}))
        stats.service = LatencyHistogram.from_dict(data.get("service", {}))
        stats.response = LatencyHistogram.from_dict(data.get("response", {}))
        return stats


class PhasePlan:
    """One phase: a name, a duration, an arrival process, a measure flag."""

    def __init__(
        self,
        name: str,
        duration: float,
        arrivals: ArrivalProcess,
        measure: bool = True,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"phase {name!r} needs a positive duration")
        self.name = name
        self.duration = float(duration)
        self.arrivals = arrivals
        self.measure = measure

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhasePlan":
        return cls(
            str(data.get("name", "phase")),
            float(data["duration"]),
            make_arrivals(data["arrivals"]),
            bool(data.get("measure", True)),
        )


class LoadWorker:
    """Drive one executor through a phase plan; see the module docstring.

    ``executor`` needs ``async read(obj)`` and ``async write(obj, value)``.
    ``retryable`` lists exception types retried in place (fresh value per
    write attempt — a failed ack may still have installed, so reusing the
    value would break the unique-written-values assumption); anything
    else, or retry exhaustion, counts as an error for the op.
    """

    def __init__(
        self,
        *,
        executor: Any,
        workload: WorkloadMix,
        phases: Sequence[PhasePlan],
        site: int,
        seed: int,
        values: Any,
        max_concurrency: int = 64,
        op_retries: int = 8,
        retry_backoff: float = 0.05,
        retryable: Tuple[type, ...] = (),
        instruments: Any = None,
        deadline_judges: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.executor = executor
        self.workload = workload
        self.phases = list(phases)
        self.site = site
        self.rng_seed = seed
        self.values = values
        self.max_concurrency = max(1, int(max_concurrency))
        self.op_retries = max(0, int(op_retries))
        self.retry_backoff = retry_backoff
        self.retryable = tuple(retryable)
        self.instruments = instruments
        self.deadline_judges = deadline_judges or {}
        self._sem = asyncio.Semaphore(self.max_concurrency)
        self._tasks: List[asyncio.Future] = []
        self.stats: List[PhaseStats] = []
        #: Pending deadline-class names per object, popped by the trace
        #: listener as reads record (FIFO per object: reads of one object
        #: ride one primary connection, so completion order matches).
        self._pending_deadline: Dict[str, List[str]] = {}

    # -- trace listener (on-time judging) --------------------------------

    def on_op_recorded(self, op: Any) -> None:
        """Feed every recorded operation to the online judges.  Register
        with ``recorder.add_listener(worker.on_op_recorded)``."""
        kind = getattr(op.kind, "value", op.kind)
        if kind == "w":
            if self.instruments is not None:
                self.instruments.on_write(
                    op.site, op.obj, op.value, op.time,
                    start=op.start, end=op.end,
                )
            for judge in self.deadline_judges.values():
                judge.on_write(
                    op.site, op.obj, op.value, op.time,
                    start=op.start, end=op.end,
                )
        else:
            if self.instruments is not None:
                self.instruments.on_read(
                    op.site, op.obj, op.value, op.time,
                    start=op.start, end=op.end,
                )
            pending = self._pending_deadline.get(op.obj)
            if pending:
                judge = self.deadline_judges.get(pending.pop(0))
                if judge is not None:
                    judge.on_read(
                        op.site, op.obj, op.value, op.time,
                        start=op.start, end=op.end,
                    )

    # -- execution -------------------------------------------------------

    async def _execute(self, planned: PlannedOp) -> None:
        last: Optional[BaseException] = None
        for attempt in range(self.op_retries + 1):
            try:
                if planned.kind == "write":
                    value = self.values.next_value(self.site)
                    await self.executor.write(planned.obj, value)
                else:
                    if planned.deadline is not None:
                        self._pending_deadline.setdefault(
                            planned.obj, []
                        ).append(planned.deadline)
                    await self.executor.read(planned.obj)
                return
            except self.retryable as exc:  # noqa: B030 - tuple by design
                last = exc
                await asyncio.sleep(
                    min(self.retry_backoff * (attempt + 1), 0.25)
                )
        assert last is not None
        raise last

    async def _one_op(
        self, stats: PhaseStats, planned: PlannedOp, intended: float
    ) -> None:
        # The semaphore is acquired *inside* the op so that waiting for a
        # slot counts toward response time — capping concurrency must not
        # reintroduce coordinated omission through the back door.
        async with self._sem:
            start = loop_time()
            try:
                await self._execute(planned)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                stats.record_error(exc)
                return
            end = loop_time()
            stats.service.record(end - start)
            stats.response.record(max(end - intended, 0.0))

    async def run(self, start_mono: float) -> List[PhaseStats]:
        """Run every phase back to back, anchored at ``start_mono`` (a
        loop-clock reading — the engine's shared start barrier)."""
        import random

        offset = 0.0
        for number, phase in enumerate(self.phases):
            stats = PhaseStats(phase.name, phase.measure)
            self.stats.append(stats)
            rng = random.Random(
                self.rng_seed * 1_000_003 + self.site * 101 + number
            )
            if phase.arrivals.open_loop:
                schedule = phase.arrivals.schedule(phase.duration, rng)
                for rel in schedule:
                    intended = start_mono + offset + rel
                    delay = intended - loop_time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    # Never skip a late slot: fire immediately with the
                    # original intended time as the anchor.
                    planned = self.workload.next_op(rng)
                    stats.offered += 1
                    self._tasks.append(
                        asyncio.ensure_future(
                            self._one_op(stats, planned, intended)
                        )
                    )
            else:
                think = getattr(phase.arrivals, "think", 0.0)
                phase_end = start_mono + offset + phase.duration
                while loop_time() < phase_end:
                    planned = self.workload.next_op(rng)
                    stats.offered += 1
                    # Closed loop: intended == actual start, by definition
                    # — the coordinated-omission control arm.
                    await self._one_op(stats, planned, loop_time())
                    if think > 0:
                        await asyncio.sleep(think)
            offset += phase.duration
            # Let the phase boundary pass before starting the next phase
            # (open-loop dispatch may finish early; ops keep completing).
            remaining = (start_mono + offset) - loop_time()
            if remaining > 0:
                await asyncio.sleep(remaining)
        if self._tasks:
            await asyncio.gather(*self._tasks)
        for stats in self.stats:
            stats.completed = stats.offered - stats.errors
        return self.stats

    def result(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": SCHEMA,
            "site": self.site,
            "phases": [s.to_dict() for s in self.stats],
        }
        if self.instruments is not None:
            out["ontime"] = self.instruments.summary()
        if self.deadline_judges:
            out["deadlines"] = {
                name: judge.summary()
                for name, judge in self.deadline_judges.items()
            }
        return out


# -- subprocess entry point ----------------------------------------------


def _build_executor(config: Dict[str, Any], recorder: Any) -> Any:
    target = config["target"]
    kind = target.get("kind", "ring")
    site = int(config["site"])
    delta = float(config.get("delta", 1.0))
    if kind == "server":
        from repro.net.client import NetCacheClient

        return NetCacheClient(
            site, target["host"], int(target["port"]),
            delta=delta, mode=target.get("mode", "pull"),
            recorder=recorder, skew=float(config.get("skew", 0.0)),
            pipeline_depth=int(target.get("pipeline_depth", 8)),
            batch=int(target.get("batch", 0)),
        )
    if kind == "ring":
        from repro.net.ring_router import RingRouter
        from repro.ring.ring import Ring

        ring = Ring.from_dict(target["ring"])
        endpoints = {
            int(dev): (host, int(port))
            for dev, (host, port) in target["endpoints"].items()
        }
        return RingRouter(
            site, ring, endpoints,
            delta=delta,
            write_quorum=target.get("write_quorum"),
            read_policy=target.get("read_policy", "primary"),
            recorder=recorder, skew=float(config.get("skew", 0.0)),
            pipeline_depth=int(target.get("pipeline_depth", 8)),
            batch=int(target.get("batch", 0)),
        )
    raise ValueError(f"unknown target kind {kind!r}")


async def _amain(config: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.io import dump_history
    from repro.net.client import NetError
    from repro.net.local import anti_entropy_period
    from repro.obs.instruments import TimedInstruments
    from repro.obs.metrics import Registry
    from repro.ring.placement import PlacementError
    from repro.sim.trace import TraceRecorder, UniqueValueFactory

    delta = float(config.get("delta", 1.0))
    recorder = TraceRecorder()
    values = UniqueValueFactory()
    instruments = TimedInstruments(Registry(), delta)
    workload = make_workload(config.get("workload", {}))
    deadline_judges = {
        d.name: TimedInstruments(Registry(), d.delta)
        for d in workload.deadlines
    }
    phases = [PhasePlan.from_dict(p) for p in config["phases"]]

    executor = _build_executor(config, recorder)
    await executor.connect()
    epsilon = executor.epsilon_bound
    instruments.epsilon = epsilon
    for judge in deadline_judges.values():
        judge.epsilon = epsilon
    if config["target"].get("kind", "ring") == "ring":
        executor.start_anti_entropy(period=anti_entropy_period(delta))
        watch = config["target"].get("epoch_watch_period")
        if watch:
            executor.start_epoch_watch(period=float(watch))

    worker = LoadWorker(
        executor=executor,
        workload=workload,
        phases=phases,
        site=int(config["site"]),
        seed=int(config.get("seed", 0)),
        values=values,
        max_concurrency=int(config.get("max_concurrency", 64)),
        op_retries=int(config.get("op_retries", 8)),
        retryable=(NetError, PlacementError),
        instruments=instruments,
        deadline_judges=deadline_judges,
    )
    recorder.add_listener(worker.on_op_recorded)

    # Shared start barrier: every worker converts the engine's wall-clock
    # rendezvous (it crosses processes, so it is wall time — the one
    # ``time`` read here) into its own loop-clock anchor, then sleeps up to it.
    start_at = float(config["start_at"])
    start_mono = loop_time() + (start_at - time.time())
    delay = start_mono - loop_time()
    if delay > 0:
        await asyncio.sleep(delay)

    began = loop_time()
    try:
        await worker.run(start_mono)
        if hasattr(executor, "placement"):
            await executor.placement.drain()
    finally:
        await executor.close()
    wall = loop_time() - began

    dump_history(recorder.history(validate=False), config["trace_path"])
    result = worker.result()
    result["worker_id"] = config.get("worker_id", 0)
    result["epsilon_bound"] = epsilon
    result["wall_s"] = wall
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="one load-generation worker process (spawned by the "
        "scenario engine; see repro.load.engine)"
    )
    parser.add_argument("--config", required=True, help="worker config JSON")
    args = parser.parse_args(argv)
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    try:
        result = asyncio.run(_amain(config))
    except Exception as exc:  # noqa: BLE001 - reported to the engine
        failure = {
            "schema": SCHEMA,
            "worker_id": config.get("worker_id", 0),
            "error": f"{type(exc).__name__}: {exc}",
        }
        from repro.core.io import atomic_write_json

        atomic_write_json(config["out_path"], failure, fsync=False)
        return 1
    from repro.core.io import atomic_write_json

    atomic_write_json(config["out_path"], result, fsync=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
