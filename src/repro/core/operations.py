"""Read/write operations with effective times (Section 2 of the paper).

The global history ``H`` is a set of read and write operations executed at
the sites of the system.  Every operation takes a finite, non-zero time to
execute, but for the purposes of timed consistency each operation ``a`` is
associated with a single instant — its *effective time* ``T(a)`` — lying
somewhere between its start and its end.  When a logical clock is also in
play (Section 5.4) an operation additionally carries a logical timestamp
``L(a)``.

Per the paper's simplifying assumption, every value written to a given
object is unique; :class:`repro.core.history.History` validates this, and
the checkers rely on it to recover the reads-from relation from values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.clocks.base import LogicalTimestamp


class OpKind(enum.Enum):
    """The two operation kinds of the paper's histories."""

    READ = "r"
    WRITE = "w"


@dataclass(frozen=True, eq=False, slots=True)
class Operation:
    """One read or write in the global history.

    Identity (not structure) defines equality and the hash: two reads of
    the same value at the same site are distinct operations, and sets and
    dicts of operations key by the operation itself.  Where an order must
    break ties between equal times, it is the position in the sequence a
    history or a checker was given.  ``time`` is the effective
    time ``T(op)``; ``start``/``end`` optionally record the full execution
    interval (``start <= time <= end`` when given); ``ltime`` optionally
    records the logical timestamp ``L(op)`` for Definition 6.
    """

    kind: OpKind
    site: int
    obj: str
    value: Any
    time: float
    start: Optional[float] = None
    end: Optional[float] = None
    ltime: Optional[LogicalTimestamp] = None

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ValueError(f"site must be non-negative, got {self.site}")
        if self.start is not None and self.start > self.time:
            raise ValueError(
                f"effective time {self.time} precedes start {self.start}"
            )
        if self.end is not None and self.end < self.time:
            raise ValueError(f"effective time {self.time} follows end {self.end}")

    # -- predicates ------------------------------------------------------

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        tag = "r" if self.is_read else "w"
        return f"{tag}{self.site}({self.obj}){self.value}@{self.time:g}"

    def label(self) -> str:
        """Paper-style label, e.g. ``w2(C)7`` or ``r4(C)6``."""
        tag = "r" if self.is_read else "w"
        return f"{tag}{self.site}({self.obj}){self.value}"


def read(site: int, obj: str, value: Any, time: float, **kw) -> Operation:
    """Build a read operation ``r_site(obj)value`` at effective time ``time``."""
    return Operation(OpKind.READ, site, obj, value, float(time), **kw)


def write(site: int, obj: str, value: Any, time: float, **kw) -> Operation:
    """Build a write operation ``w_site(obj)value`` at effective time ``time``."""
    return Operation(OpKind.WRITE, site, obj, value, float(time), **kw)
