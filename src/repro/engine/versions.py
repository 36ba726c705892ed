"""Object versions with lifetimes (Section 5.1 of the paper).

Every cached or stored object value carries its *lifetime*: the interval
``[alpha, omega]`` between the instant the value was written (start time)
and the latest instant it is known to have still been current (ending
time).  Two values are *mutually consistent* iff their lifetimes overlap —
they coexisted at some instant.  For the physical protocols alpha/omega are
real numbers; for the causal protocols they are vector (or plausible)
timestamps.  The TCC protocol adds ``beta``, the *checking time*: the
latest real-time instant the value was known valid, used to enforce the
delta bound even when lifetimes are logical (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.clocks.base import LogicalTimestamp, Ordering


@dataclass
class PhysicalVersion:
    """A value with a physical-time lifetime.

    ``alpha``: effective time of the write that produced the value.
    ``omega``: latest time the value is known to have been current.
    ``writer``: site id of the writer (for diagnostics).
    """

    obj: str
    value: Any
    alpha: float
    omega: float
    writer: int = -1

    def __post_init__(self) -> None:
        if self.omega < self.alpha:
            raise ValueError(
                f"lifetime ends before it starts: [{self.alpha}, {self.omega}]"
            )

    def advance_omega(self, until: float) -> None:
        """Extend the known lifetime (a validation succeeded at ``until``)."""
        if until > self.omega:
            self.omega = until

    def copy(self) -> "PhysicalVersion":
        return PhysicalVersion(self.obj, self.value, self.alpha, self.omega, self.writer)

    def __repr__(self) -> str:
        return (
            f"PhysicalVersion({self.obj}={self.value!r} "
            f"[{self.alpha:g}, {self.omega:g}] by {self.writer})"
        )


@dataclass
class LogicalVersion:
    """A value with a vector/plausible-clock lifetime, plus the TCC
    checking time ``beta`` (real time; ``None`` for the plain CC protocol).

    ``birth`` is the physical instant the write was issued — immutable,
    unlike ``beta`` which advances on every validation.  Servers break
    ties between *concurrent* writes by ``birth`` so the physically later
    write wins, which is what keeps the TCC delta bound meaningful.
    """

    obj: str
    value: Any
    alpha: LogicalTimestamp
    omega: LogicalTimestamp
    writer: int = -1
    beta: Optional[float] = None
    birth: float = 0.0

    def advance_omega(self, until: LogicalTimestamp) -> None:
        """Join the known ending time with ``until``."""
        self.omega = self.omega.join(until)

    def advance_beta(self, until: float) -> None:
        if self.beta is None or until > self.beta:
            self.beta = until

    def omega_causally_before(self, context: LogicalTimestamp) -> bool:
        """The invalidation test of Section 5.3: ``omega -> Context_i``
        (strictly causally before; concurrent is acceptable)."""
        return self.omega.compare(context) is Ordering.BEFORE

    def copy(self) -> "LogicalVersion":
        return replace(self)

    def __repr__(self) -> str:
        return (
            f"LogicalVersion({self.obj}={self.value!r} "
            f"[{self.alpha!r}, {self.omega!r}] beta={self.beta} by {self.writer})"
        )


@dataclass
class CacheEntry:
    """A cached version plus cache-local bookkeeping.

    ``old`` implements the Section 5.2 optimization: instead of
    invalidating a version whose ending time fell behind ``Context_i`` (or
    behind ``t_i - delta``), mark it *old*; the next access validates it
    against a server with an if-modified-since exchange, which either
    advances the ending time or replaces the version — avoiding the
    unnecessary transfer of large objects.
    """

    version: Any  # PhysicalVersion | LogicalVersion
    old: bool = False
    fetched_at: float = 0.0
    hits: int = 0

    def refresh(self, version: Any, now: float) -> None:
        self.version = version
        self.old = False
        self.fetched_at = now
