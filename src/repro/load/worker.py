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

The scenario engine (:mod:`repro.load.engine`) runs one worker per site
as a task on the loop that runs the stack, every worker anchored at the
same loop-clock reading and every one counting into the same
:class:`PhaseStats` per phase.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.rebase import loop_time
from repro.load.arrivals import ArrivalProcess
from repro.load.workload import PlannedOp, WorkloadMix
from repro.obs.metrics import HISTOGRAM, Metric, exponential_buckets

#: Latency bucket edges from 1 µs to 1 000 s, each ``1 + 2**-5`` times
#: the last: an upper-edge quantile is never below the true value and at
#: most 3.1 % above it.
LATENCY_BUCKETS = exponential_buckets(1e-6, 1 + 2 ** -5, 675)

#: Retry ``n`` of an op waits ``n * RETRY_BACKOFF`` seconds, at most 0.25.
RETRY_BACKOFF = 0.05


def _latency_histogram(name: str) -> Any:
    return Metric(name, HISTOGRAM, buckets=LATENCY_BUCKETS).labels()


class PhaseStats:
    """Counters and latency histograms (seconds) for one phase, shared by
    every worker that runs it.  Phases roll up into a scenario's
    ``measured`` tally with :meth:`merge`, bucket-exact."""

    def __init__(self, name: str, measure: bool = True) -> None:
        self.name = name
        self.measure = measure
        self.offered = 0
        self.errors = 0
        self.errors_by_kind: Dict[str, int] = {}
        self.service = _latency_histogram("repro_load_service_seconds")
        self.response = _latency_histogram("repro_load_response_seconds")

    @property
    def completed(self) -> int:
        return self.offered - self.errors

    def record_error(self, exc: BaseException) -> None:
        self.errors += 1
        kind = type(exc).__name__
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1

    def merge(self, other: "PhaseStats") -> "PhaseStats":
        self.offered += other.offered
        self.errors += other.errors
        for kind, count in other.errors_by_kind.items():
            self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + count
        self.service.merge(other.service)
        self.response.merge(other.response)
        return self


class PhasePlan:
    """One phase: a duration, an arrival process, and the tally its
    operations count into (one :class:`PhaseStats` per plan, so workers
    that share a plan share its books)."""

    def __init__(
        self,
        name: str,
        duration: float,
        arrivals: ArrivalProcess,
        measure: bool = True,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"phase {name!r} needs a positive duration")
        self.duration = float(duration)
        self.arrivals = arrivals
        self.stats = PhaseStats(name, measure)


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
        retryable: Tuple[type, ...] = (),
    ) -> None:
        self.executor = executor
        self.workload = workload
        self.phases = list(phases)
        self.site = site
        self.rng_seed = seed
        self.values = values
        self.max_concurrency = max(1, int(max_concurrency))
        self.op_retries = max(0, int(op_retries))
        self.retryable = tuple(retryable)
        self._sem = asyncio.Semaphore(self.max_concurrency)
        self._tasks: List[asyncio.Future] = []
        #: Pending deadline-class names per object, popped by
        #: :meth:`deadline_of` as reads record (FIFO per object: reads of
        #: one object ride one primary connection, so completion order
        #: matches).
        self._pending_deadline: Dict[str, List[str]] = {}

    def deadline_of(self, obj: str) -> Optional[str]:
        """The deadline class of this site's read of ``obj`` that just
        recorded (``None`` for a read planned without one)."""
        pending = self._pending_deadline.get(obj)
        return pending.pop(0) if pending else None

    # -- execution -------------------------------------------------------

    async def _execute(self, planned: PlannedOp) -> None:
        last: Optional[BaseException] = None
        for attempt in range(self.op_retries + 1):
            try:
                if planned.kind == "write":
                    value = self.values.next_value(self.site)
                    await self.executor.write(planned.obj, value)
                elif planned.deadline is None:
                    await self.executor.read(planned.obj)
                else:
                    pending = self._pending_deadline.setdefault(planned.obj, [])
                    pending.append(planned.deadline)
                    try:
                        await self.executor.read(planned.obj)
                    except BaseException:
                        # An attempt that raises records nothing, so
                        # deadline_of would never pop its class.
                        pending.remove(planned.deadline)
                        raise
                return
            except self.retryable as exc:  # noqa: B030 - tuple by design
                last = exc
                await asyncio.sleep(min(RETRY_BACKOFF * (attempt + 1), 0.25))
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
            stats.service.observe(end - start)
            stats.response.observe(max(end - intended, 0.0))

    async def run(self, start_mono: float) -> List[PhaseStats]:
        """Run every phase back to back, anchored at ``start_mono`` (a
        loop-clock reading — every worker of a scenario shares it)."""
        import random

        offset = 0.0
        for number, phase in enumerate(self.phases):
            stats = phase.stats
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
        return [phase.stats for phase in self.phases]
