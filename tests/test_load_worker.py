"""The coordinated-omission regression: a stalled executor must inflate
the open-loop *response* tail (arrivals kept coming and queued) while
the closed-loop arm quietly hides the stall by issuing fewer requests.
Also covers the worker's retry discipline, phase accounting and how
its reads reach the scenario's online judges — all against an
in-process stub executor, no sockets.  The two open-loop
stall tests run in virtual time (:mod:`repro.sim.vtime`): the stub's
sleeps and the worker's schedule both read the loop's clock, so a stall
is exactly as long as it says; the rest stay on the real loop."""

import asyncio

import pytest

from repro.clocks.rebase import loop_time
from repro.load import LoadWorker, PhasePlan, make_arrivals, make_workload
from repro.load.engine import OnlineJudges
from repro.load.workload import DeadlineClass, PlannedOp
from repro.sim import vtime
from repro.sim.trace import TraceRecorder


class StubValues:
    def __init__(self):
        self.n = 0

    def next_value(self, site):
        self.n += 1
        return f"s{site}.{self.n}"


class StallingExecutor:
    """~1 ms per op, with one long stall at a fixed op number."""

    def __init__(self, base=0.001, stall_at=10, stall=0.5):
        self.base = base
        self.stall_at = stall_at
        self.stall = stall
        self.calls = 0

    async def _serve(self):
        self.calls += 1
        delay = self.stall if self.calls == self.stall_at else self.base
        await asyncio.sleep(delay)

    async def read(self, obj):
        await self._serve()

    async def write(self, obj, value):
        await self._serve()


def _run(arrival_spec, executor, duration=1.0, run=asyncio.run, **worker_kw):
    workload = make_workload(
        {"write_fraction": 0.3, "keys": {"kind": "uniform", "n": 4}}
    )
    plan = PhasePlan("main", duration, make_arrivals(arrival_spec))
    worker = LoadWorker(
        executor=executor,
        workload=workload,
        phases=[plan],
        site=100,
        seed=7,
        values=StubValues(),
        max_concurrency=1,
        **worker_kw,
    )

    async def _go():
        return await worker.run(loop_time())

    (stats,) = run(_go())
    return stats


@pytest.mark.net(timeout=5)  # virtual seconds: only a hang takes this long
def test_open_loop_exposes_the_stall_closed_loop_hides_it():
    open_stats = _run(
        {"kind": "fixed", "rate": 100}, StallingExecutor(), duration=1.0,
        run=vtime.run,
    )
    closed_stats = _run(
        {"kind": "closed", "think": 0.0}, StallingExecutor(), duration=1.0,
        run=vtime.run,
    )

    # Open loop: every intended arrival is offered, the ~50 arrivals the
    # 0.5s stall backed up each waited up to the full stall, so the
    # response p99 carries it.  Service time stays small — the stall hit
    # one op, not the server's steady state.
    assert open_stats.offered == 100
    assert open_stats.response.quantile(0.99) > 0.25
    assert open_stats.service.quantile(0.90) < 0.1

    # Closed loop: intended == actual start, so the queueing delay is
    # invisible — the harness just issued fewer requests.  That gap IS
    # coordinated omission.
    assert closed_stats.response.quantile(0.99) < 0.25
    # And the throughput quietly sagged: ~1ms/op for 1s minus the stall.
    assert closed_stats.offered < 100 + (1.0 - 0.5) / 0.001


@pytest.mark.net(timeout=5)
def test_open_loop_response_includes_queueing_service_does_not():
    stats = _run(
        {"kind": "fixed", "rate": 200},
        StallingExecutor(base=0.002, stall_at=1, stall=0.3),
        duration=0.5, run=vtime.run,
    )
    assert stats.offered == 100
    # Everything behind the head-of-line stall queued: median response
    # far above median service.
    assert stats.response.quantile(0.5) > 2 * stats.service.quantile(0.5)


class FlakyExecutor:
    """Fails each op ``fail`` times with ``exc`` before succeeding."""

    def __init__(self, fail=2, exc=ConnectionError):
        self.fail = fail
        self.exc = exc
        self.attempts = {}
        self.write_values = []

    async def read(self, obj):
        await self._maybe_fail(("r", obj))

    async def write(self, obj, value):
        self.write_values.append(value)
        await self._maybe_fail(("w", obj))

    async def _maybe_fail(self, key):
        seen = self.attempts.get(key, 0)
        self.attempts[key] = seen + 1
        if seen < self.fail:
            raise self.exc(f"transient {key}")


def test_retryable_errors_are_retried_with_fresh_write_values():
    executor = FlakyExecutor(fail=2)
    stats = _run(
        {"kind": "fixed", "rate": 50},
        executor,
        duration=0.2,
        op_retries=4,
        retryable=(ConnectionError,),
        run=vtime.run,
    )
    assert stats.errors == 0
    assert stats.completed == stats.offered == 10
    # A failed write ack may still have installed server-side, so every
    # retry attempt must carry a fresh unique value.
    assert len(set(executor.write_values)) == len(executor.write_values)


def test_non_retryable_errors_are_counted_not_raised():
    executor = FlakyExecutor(fail=1000, exc=ValueError)
    stats = _run(
        {"kind": "fixed", "rate": 50},
        executor,
        duration=0.2,
        op_retries=2,
        retryable=(ConnectionError,),  # ValueError is NOT retryable
    )
    assert stats.offered == 10
    assert stats.errors == 10
    assert stats.completed == 0
    assert stats.errors_by_kind == {"ValueError": 10}
    # Only the first attempt ran per op: no retry loop for foreign errors.
    assert sum(executor.attempts.values()) == 10


def test_retry_exhaustion_counts_one_error():
    executor = FlakyExecutor(fail=1000, exc=ConnectionError)
    stats = _run(
        {"kind": "fixed", "rate": 20},
        executor,
        duration=0.1,
        op_retries=3,
        retryable=(ConnectionError,),
        run=vtime.run,
    )
    assert stats.offered == 2
    assert stats.errors == 2
    assert stats.errors_by_kind == {"ConnectionError": 2}
    # 1 + 3 retries per op.
    assert sum(executor.attempts.values()) == 2 * 4


def test_phase_stats_merge():
    from repro.load import PhaseStats

    a = _run({"kind": "fixed", "rate": 100}, StallingExecutor(
        base=0.0001, stall_at=10 ** 9), duration=0.1)
    b = _run({"kind": "fixed", "rate": 100}, StallingExecutor(
        base=0.0001, stall_at=10 ** 9), duration=0.1)
    total = a.offered + b.offered
    merged = PhaseStats("main").merge(a).merge(b)
    assert merged.offered == total
    assert merged.completed == total
    assert merged.response.count == total


class FirstReadFailsExecutor:
    """Records each completed read, the way a connected site does; the
    very first read raises."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.reads = 0

    async def read(self, obj):
        self.reads += 1
        if self.reads == 1:
            raise ConnectionError("first read lost")
        self.recorder.record_read(100, obj, 0, loop_time())

    async def write(self, obj, value):
        raise AssertionError("no writes planned")


def test_a_retried_read_is_judged_under_its_own_deadline_class():
    recorder = TraceRecorder()
    judges = OnlineJudges(0.4, [DeadlineClass("fresh", 0.2, 1.0),
                                DeadlineClass("lax", 1.0, 1.0)])
    recorder.add_listener(judges.on_op_recorded)
    executor = FirstReadFailsExecutor(recorder)
    worker = LoadWorker(
        executor=executor,
        workload=make_workload({"keys": {"kind": "uniform", "n": 1}}),
        phases=[],
        site=100,
        seed=7,
        values=StubValues(),
        retryable=(ConnectionError,),
    )
    judges.workers[100] = worker

    async def _go():
        await worker._execute(PlannedOp("read", "k0000", "fresh"))
        await worker._execute(PlannedOp("read", "k0000", "lax"))

    vtime.run(_go())
    assert executor.reads == 3  # the fresh read was retried once
    assert {name: j.summary()["reads_on_time"]
            for name, j in judges.deadlines.items()} == {"fresh": 1, "lax": 1}
    assert judges.ontime.summary()["reads_on_time"] == 2
    assert not any(worker._pending_deadline.values())


def test_a_read_that_records_before_its_write_is_judged_when_it_does():
    # A writer awaiting its replica acks records after a reader that got
    # the new value from the primary.  Judged at once, the read would
    # look late against the object's older write.
    recorder = TraceRecorder()
    judges = OnlineJudges(0.4, [])
    recorder.add_listener(judges.on_op_recorded)
    recorder.record_write(999, "k", "s999.1", 0.0)
    recorder.record_read(100, "k", "s101.2", 1.0)
    recorder.record_read(100, "k", "s101.3", 1.1)  # its write never records
    assert judges.ontime.summary()["reads_on_time"] == 0
    recorder.record_write(101, "k", "s101.2", 0.99, start=0.98, end=1.01)
    summary = judges.ontime.summary()
    assert (summary["reads_on_time"], summary["reads_late"],
            summary["reads_unjudged"]) == (1, 0, 0)
