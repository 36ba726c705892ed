"""Base abstractions shared by every clock in :mod:`repro.clocks`.

The paper uses two kinds of clocks:

* *physical* clocks, which produce real numbers (possibly skewed/drifting,
  but re-synchronized so that any two clocks differ by at most ``epsilon``),
  used by Definitions 1-2 and by the TSC/TCC protocols of Section 5; and
* *logical* clocks (Lamport scalar clocks, vector clocks, plausible clocks),
  used by the causally consistent variants and by the logical-clock
  approximation of TCC in Section 5.4.

Logical timestamps are only partially ordered, so comparisons return an
:class:`Ordering` value rather than a boolean.  ``max``/``min`` of two
logical timestamps (needed by the lifetime protocol rules when they are
re-expressed over logical clocks, Section 5.3) are component-wise joins and
meets and are provided by each timestamp class as :meth:`join`/:meth:`meet`.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Generic, TypeVar


class Ordering(enum.Enum):
    """Result of comparing two (possibly only partially ordered) timestamps.

    ``BEFORE`` means the left operand happened-before the right one,
    ``AFTER`` the converse, ``EQUAL`` that they are the same timestamp and
    ``CONCURRENT`` that neither dominates the other (only possible for
    logical clocks, or for physical timestamps compared under a clock
    precision ``epsilon`` as in Section 3.2 of the paper).
    """

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


def compare_physical(t_a: float, t_b: float, epsilon: float = 0.0) -> Ordering:
    """Compare two physical timestamps under clock precision ``epsilon``.

    Following Section 3.2 (and Stoller's definition the paper borrows),
    ``a`` *definitely occurred before* ``b`` iff ``T(a) + epsilon < T(b)``.
    If neither definitely occurred before the other, the timestamps are
    ``CONCURRENT`` — the imprecision of the clocks does not allow deciding
    which operation occurred earlier.  With ``epsilon == 0`` this degrades
    to the usual total order on the reals (ties are ``EQUAL``).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if t_a == t_b and epsilon == 0.0:
        return Ordering.EQUAL
    if t_a + epsilon < t_b:
        return Ordering.BEFORE
    if t_b + epsilon < t_a:
        return Ordering.AFTER
    if t_a == t_b:
        return Ordering.EQUAL
    return Ordering.CONCURRENT


TS = TypeVar("TS", bound="LogicalTimestamp")


class LogicalTimestamp(ABC):
    """A timestamp drawn from some logical clock.

    Concrete subclasses (scalar Lamport timestamps, vector timestamps,
    plausible timestamps) must implement :meth:`compare`, :meth:`join` and
    :meth:`meet`.  Rich comparisons are derived from :meth:`compare`; note
    that for partially ordered timestamps ``not (a < b)`` does **not** imply
    ``a >= b``.
    """

    @abstractmethod
    def compare(self, other: "LogicalTimestamp") -> Ordering:
        """Order this timestamp against ``other``."""

    @abstractmethod
    def join(self: TS, other: TS) -> TS:
        """Least upper bound (the ``max`` of the lifetime protocol rules)."""

    @abstractmethod
    def meet(self: TS, other: TS) -> TS:
        """Greatest lower bound (the ``min`` of the lifetime protocol rules)."""

    # -- derived comparison helpers ------------------------------------

    def __lt__(self, other: "LogicalTimestamp") -> bool:
        return self.compare(other) is Ordering.BEFORE

    def __gt__(self, other: "LogicalTimestamp") -> bool:
        return self.compare(other) is Ordering.AFTER

    def __le__(self, other: "LogicalTimestamp") -> bool:
        return self.compare(other) in (Ordering.BEFORE, Ordering.EQUAL)

    def __ge__(self, other: "LogicalTimestamp") -> bool:
        return self.compare(other) in (Ordering.AFTER, Ordering.EQUAL)


C = TypeVar("C")


class LogicalClock(ABC, Generic[C]):
    """A per-site logical clock that stamps local and message events.

    The interface mirrors the classical presentation: a site *ticks* for a
    local event, *sends* a timestamp along with a message and *receives* a
    timestamp from a message (merging it into local state).  ``now`` reads
    the current timestamp without advancing the clock.
    """

    @abstractmethod
    def now(self) -> C:
        """Current timestamp (no side effects)."""

    @abstractmethod
    def tick(self) -> C:
        """Advance for a local event and return the new timestamp."""

    @abstractmethod
    def send(self) -> C:
        """Advance for a send event and return the timestamp to piggyback."""

    @abstractmethod
    def receive(self, remote: C) -> C:
        """Merge a received timestamp, advance, and return the new timestamp."""
