"""Reading on time: the W_r sets of Definitions 1, 2 and 6.

Definition 1 (perfect clocks): let ``w`` be the write whose value the read
``r`` returns in serialization ``S``.  Then

    W_r = { w' : w' writes to the same object  and  T(w) < T(w') < T(r) - delta }

``r`` *reads on time* iff ``W_r`` is empty; ``S`` is *timed* iff every read
in it reads on time.

Definition 2 (epsilon-synchronized clocks) shrinks the window by ``2
epsilon`` using the *definitely-occurred-before* relation: ``w'`` counts
only if ``T(w) + epsilon < T(w')`` and ``T(w') + epsilon < T(r) - delta``.
With ``epsilon = 0`` it reduces to Definition 1.

Definition 6 (logical clocks) replaces physical times by ``xi(L(op))`` for a
Definition-5 map ``xi``; ``delta`` is then a real number measured in
"amount of global activity" rather than seconds.

A read of the *initial value* is treated as reading from a virtual write at
time ``-inf`` (so any same-object write older than ``T(r) - delta`` makes it
late) — this matches the paper's Figure 6 discussion, where ``r4(C)0`` at
155 violates TCC for delta = 30 because of ``w2(C)3`` at 98.

Because written values are unique, the write ``w`` a read returns is
determined by the read's value alone, so whether each read is on time is a
property of the *history*, not of the particular serialization.  This gives
the key decomposition the checkers exploit::

    TSC(delta)  <=>  SC  and  every read on time
    TCC(delta)  <=>  CC  and  every read on time

(the test suite cross-validates this against the direct definition-level
search.)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.clocks.xi import XiMap
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import reads_from_in

#: ``delta = INFINITE_DELTA`` recovers plain SC/CC (Figure 4b's right end).
INFINITE_DELTA = math.inf

#: How an operation is placed in time: ``T(op)`` (Definitions 1-2) or
#: ``xi(L(op))`` (Definition 6).
TimeOf = Callable[[Operation], float]


def required_delta(
    t_read: float,
    t_writer: float,
    write_times: Iterable[float],
    epsilon: float = 0.0,
) -> float:
    """The smallest delta for which a read occurs on time — Definition 2's
    test, and the only place it is written.

    ``t_read`` is the read's time, ``t_writer`` that of the write whose
    value it returns (``-inf`` for the initial value) and ``write_times``
    the times of the writes to the same object (the writer's own time may
    be among them: ``T(w) + epsilon < T(w)`` never holds).  A write ``w'``
    belongs to ``W_r`` iff ``T(w) + epsilon < T(w')`` and ``T(w') +
    epsilon < T(r) - delta``; the second clause is a bound on delta, so
    the read is **late iff the returned value exceeds delta**.
    Definition 1 is ``epsilon = 0``; Definition 6 is ``epsilon = 0`` over
    ``xi(L(op))``.  Because the window is strict, the returned value
    itself is on time.
    """
    need = 0.0
    for t in write_times:
        if t_writer + epsilon < t:
            bound = t_read - t - epsilon
            if bound > need:
                need = bound
    return need


_physical_time: TimeOf = attrgetter("time")


def _writer_time(writer: Optional[Operation], time_of: TimeOf) -> float:
    return -math.inf if writer is None else time_of(writer)


def _w_r(history: History, read_op: Operation, delta: float, epsilon: float,
         writer: Optional[Operation], time_of: TimeOf) -> List[Operation]:
    t_r, t_w = time_of(read_op), _writer_time(writer, time_of)
    return [
        w for w in history.writes_to(read_op.obj)
        if required_delta(t_r, t_w, (time_of(w),), epsilon) > delta
    ]


def _required_deltas(
    history: History, epsilon: float, time_of: TimeOf
) -> Iterator[Tuple[Operation, float]]:
    """Every read with its :func:`required_delta` under ``time_of``.

    The bound a write sets falls as its time grows, so only the earliest
    write to the object after ``T(w) + epsilon`` can set the largest one:
    that write alone is passed on, found by bisection.
    """
    times: Dict[str, List[float]] = {}
    for w in history.writes:
        times.setdefault(w.obj, []).append(time_of(w))
    for obj_times in times.values():
        obj_times.sort()
    for read_op in history.reads:
        t_w = _writer_time(history.writer_of(read_op), time_of)
        obj_times = times.get(read_op.obj, [])
        k = bisect_right(obj_times, t_w + epsilon)
        yield read_op, required_delta(
            time_of(read_op), t_w, obj_times[k:k + 1], epsilon
        )


def w_r_set(
    history: History,
    read_op: Operation,
    delta: float,
    epsilon: float = 0.0,
    writer: Optional[Operation] = None,
) -> List[Operation]:
    """The set ``W_r`` for ``read_op`` under Definition 1 (or 2 if
    ``epsilon > 0``).

    ``writer`` is the write whose value the read returns; by default it is
    recovered from the read's value (``None`` meaning the initial value).
    """
    if not read_op.is_read:
        raise ValueError(f"{read_op!r} is not a read")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if writer is None:
        writer = history.writer_of(read_op)
    return _w_r(history, read_op, delta, epsilon, writer, _physical_time)


def read_occurs_on_time(
    history: History,
    read_op: Operation,
    delta: float,
    epsilon: float = 0.0,
    writer: Optional[Operation] = None,
) -> bool:
    """``True`` iff ``W_r`` is empty for this read."""
    return not w_r_set(history, read_op, delta, epsilon, writer)


def late_reads(
    history: History,
    delta: float,
    epsilon: float = 0.0,
) -> List[Operation]:
    """All reads of the history that do *not* occur on time (assuming each
    read returns the value of its unique writer)."""
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    return [
        r for r, need in _required_deltas(history, epsilon, _physical_time)
        if need > delta
    ]


def is_timed_serialization(
    history: History,
    sequence: Sequence[Operation],
    delta: float,
    epsilon: float = 0.0,
) -> bool:
    """Definition-level check: is this particular (legal) sequence timed?

    The writer of each read is taken from the *sequence* (the most recent
    preceding write to the object), which for legal sequences over
    unique-value histories coincides with the value-determined writer.
    """
    readers = reads_from_in(sequence, history.initial_value)
    for read_op, writer in readers.items():
        if not read_occurs_on_time(history, read_op, delta, epsilon, writer):
            return False
    return True


def min_timed_delta(
    history: History,
    epsilon: float = 0.0,
) -> float:
    """The smallest ``delta`` for which every read of the history occurs on
    time (the *timedness threshold* used by the Figure 4b/5/6 benches): the
    largest :func:`required_delta` of any read, 0 if there are none."""
    reads = _required_deltas(history, epsilon, _physical_time)
    return max((need for _, need in reads), default=0.0)


# -- Definition 6: logical clocks -------------------------------------------


def _xi_time(xi: XiMap) -> TimeOf:
    def time_of(op: Operation) -> float:
        if op.ltime is None:
            raise ValueError(f"{op!r} carries no logical timestamp")
        return xi(op.ltime)

    return time_of


def w_r_set_logical(
    history: History,
    read_op: Operation,
    delta: float,
    xi: XiMap,
    writer: Optional[Operation] = None,
) -> List[Operation]:
    """``W_r`` under Definition 6: physical times replaced by xi(L(op)).

    Every operation involved must carry a logical timestamp (``ltime``).
    A read of the initial value is treated as reading from a virtual write
    with ``xi = -inf``.
    """
    if not read_op.is_read:
        raise ValueError(f"{read_op!r} is not a read")
    if writer is None:
        writer = history.writer_of(read_op)
    return _w_r(history, read_op, delta, 0.0, writer, _xi_time(xi))


def min_timed_delta_logical(history: History, xi: XiMap) -> float:
    """Smallest Definition-6 ``delta`` making every read on time."""
    reads = _required_deltas(history, 0.0, _xi_time(xi))
    return max((need for _, need in reads), default=0.0)
