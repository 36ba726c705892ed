"""Execution tracing: turn simulated runs into :class:`History` objects.

Protocol nodes report their reads and writes here with the *true*
simulated time as the effective time (the simulator is the ground-truth
clock even when the node's own physical clock is skewed — exactly the
distinction Definitions 1 vs 2 care about).  The recorded history then
feeds the checkers, closing the loop: protocol -> execution -> criterion.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.clocks.base import LogicalTimestamp
from repro.core.history import History
from repro.core.operations import Operation, OpKind


class TraceRecorder:
    """Accumulates operations during a simulation run.

    ``listeners`` are called with each operation as it is recorded (in
    completion order, which is non-decreasing *recording* time but not
    necessarily effective-time order: a read can arrive before the write
    it returns).  For live checking, feed them to
    :class:`repro.obs.instruments.TimedInstruments`, whose reads wait for
    their writers.
    """

    def __init__(self, initial_value: Any = 0) -> None:
        self.operations: List[Operation] = []
        self.initial_value = initial_value
        self.listeners: List = []

    def add_listener(self, listener) -> None:
        """Register a callable invoked as ``listener(op)`` per operation."""
        self.listeners.append(listener)

    def _emit(self, op: Operation) -> Operation:
        self.operations.append(op)
        for listener in self.listeners:
            listener(op)
        return op

    def record_read(
        self,
        site: int,
        obj: str,
        value: Any,
        time: float,
        ltime: Optional[LogicalTimestamp] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Operation:
        op = Operation(OpKind.READ, site, obj, value, float(time), start, end, ltime)
        return self._emit(op)

    def record_write(
        self,
        site: int,
        obj: str,
        value: Any,
        time: float,
        ltime: Optional[LogicalTimestamp] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Operation:
        op = Operation(OpKind.WRITE, site, obj, value, float(time), start, end, ltime)
        return self._emit(op)

    def history(self, validate: bool = True) -> History:
        """Snapshot the trace as a :class:`History`."""
        return History(
            self.operations, initial_value=self.initial_value, validate=validate
        )

    def clear(self) -> None:
        self.operations.clear()

    def __len__(self) -> int:
        return len(self.operations)


class UniqueValueFactory:
    """Produces globally unique written values (the paper's assumption).

    Values encode the writing site and a per-factory counter, so traces
    stay human-readable: ``v(site=2,n=7)`` -> ``"s2.7"``.  Factories in
    separate processes that write to one store tell theirs apart by a
    ``token``: ``"s2.<token>.7"``.
    """

    def __init__(self, token: str = "") -> None:
        self._counter = 0
        self._prefix = f"{token}." if token else ""

    def next_value(self, site: int) -> str:
        self._counter += 1
        return f"s{site}.{self._prefix}{self._counter}"
