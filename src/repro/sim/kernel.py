"""A deterministic discrete-event simulation kernel.

The paper's authors evaluate timed consistency on a real distributed
system; we substitute a simulator (see DESIGN.md) because the definitions
are stated over effective times and clock precision, both of which a
simulator controls exactly — and determinism makes every experiment
reproducible bit-for-bit.

The kernel is deliberately small: a binary-heap event queue with FIFO
tie-breaking, callback scheduling, and generator-based *processes* (a
process is a generator that yields :class:`Timeout` or :class:`Event`
instances; the kernel resumes it when the yield completes).  This is the
subset of SimPy's model that the protocols and workloads need, built from
scratch per the reproduction rules.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a dead process)."""


class Event:
    """A one-shot synchronization point.

    Processes yield an event to suspend until somebody calls
    :meth:`succeed`.  A value may be attached and becomes the result of the
    ``yield`` expression in the waiting process.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking every waiter at the current instant."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            self.sim.schedule(0.0, callback, self)
        self._callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay


ProcessGenerator = Generator[Any, Any, None]


class Process:
    """A generator-based simulated process.

    The generator may yield:

    * ``Timeout(dt)`` — resume after ``dt`` simulated seconds;
    * ``Event`` — resume when the event succeeds (receiving its value);
    * ``Process`` — resume when that process finishes.

    ``done`` flips when the generator returns; ``completion`` is an event
    other processes can wait on.
    """

    __slots__ = ("sim", "generator", "done", "completion", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.generator = generator
        self.done = False
        self.completion = Event(sim)
        self.name = name or getattr(generator, "__name__", "process")
        sim.schedule(0.0, self._step, None)

    def _step(self, _event_or_none: Any) -> None:
        value = _event_or_none.value if isinstance(_event_or_none, Event) else None
        try:
            target = self.generator.send(value)
        except StopIteration:
            self.done = True
            self.completion.succeed()
            return
        if isinstance(target, Timeout):
            self.sim.schedule(target.delay, self._step, None)
        elif isinstance(target, Event):
            target.add_callback(self._step)
        elif isinstance(target, Process):
            target.completion.add_callback(self._step)
        else:
            raise SimulationError(
                f"process {self.name} yielded {target!r}; expected Timeout, "
                "Event or Process"
            )


class Simulator:
    """The event loop: a heap of (time, sequence, callback) entries.

    The monotonically increasing sequence number makes simultaneous events
    fire in scheduling order, which keeps runs deterministic for a fixed
    seed and schedule.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), callback, args)
        )

    def schedule_at(self, when: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, next(self._sequence), callback, args))

    def timeout(self, delay: float) -> Timeout:
        """Sugar for processes: ``yield sim.timeout(0.5)``."""
        return Timeout(delay)

    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process starting now."""
        return Process(self, generator, name)

    # -- running ----------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        when, _seq, callback, args = heapq.heappop(self._queue)
        self.now = when
        callback(*args)
        self.events_processed += 1
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or simulated time ``until``.

        Returns the final simulated time.  With ``until`` given, the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier (so measurement windows are exact).
        """
        if until is None:
            while self.step():
                pass
            return self.now
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self.now = max(self.now, until)
        return self.now

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue)

    def time_source(self) -> Callable[[], float]:
        """A closure reading this simulator's clock — what
        :class:`repro.clocks.physical.PhysicalClock` consumes."""
        return lambda: self.now
