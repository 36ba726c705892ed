"""Session guarantees (Terry et al.), as per-site checkable predicates.

The weak-consistency family the paper's SC/CC sit atop decomposes into
four *session guarantees*; together they are equivalent to causal
consistency (per session), and each is independently checkable in linear
time given reads-from — unique written values make that exact here:

* **read your writes** — a site's read never misses that site's own
  earlier write to the object;
* **monotonic reads** — a site's successive reads of an object never go
  backwards in the object's version order;
* **monotonic writes** — one site's writes to an object are installed in
  program order (here: their effective times are ordered);
* **writes follow reads** — a site's write is ordered after the writes it
  has read (checked through the causal relation).

Because these are per-read/per-write local conditions (given the
object's version order), the checkers return *every* violation, not just
a verdict — useful for debugging protocol traces.

Version order: the effective-time order of an object's writes — the
install order for our protocols; for hand-built histories it is the
natural "newer in real time" order the paper's examples use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.history import History
from repro.core.operations import Operation


@dataclass(frozen=True)
class SessionViolation:
    """One violated guarantee, with the operations that witness it."""

    guarantee: str
    site: int
    operation: Operation
    conflicting: Operation

    def __repr__(self) -> str:
        return (
            f"<{self.guarantee} at site {self.site}: {self.operation.label()}"
            f"@{self.operation.time:g} vs {self.conflicting.label()}"
            f"@{self.conflicting.time:g}>"
        )


def _version_index(history: History) -> Dict[Operation, int]:
    """Map each write to its position in the object's version order."""
    out: Dict[Operation, int] = {}
    for obj in history.objects:
        for rank, w in enumerate(history.writes_to(obj)):
            out[w] = rank + 1  # 0 is the initial value
    return out


def read_your_writes_violations(history: History) -> List[SessionViolation]:
    """Reads that miss the same site's own earlier write to the object."""
    rank = _version_index(history)
    violations: List[SessionViolation] = []
    for site in history.sites:
        last_own_write: Dict[str, Operation] = {}
        for op in history.site_ops(site):
            if op.is_write:
                last_own_write[op.obj] = op
            else:
                own = last_own_write.get(op.obj)
                if own is None:
                    continue
                writer = history.writer_of(op)
                got = 0 if writer is None else rank[writer]
                if got < rank[own]:
                    violations.append(
                        SessionViolation("read-your-writes", site, op, own)
                    )
    return violations


def monotonic_reads_violations(history: History) -> List[SessionViolation]:
    """Per-site reads of an object that regress in version order."""
    rank = _version_index(history)
    violations: List[SessionViolation] = []
    for site in history.sites:
        best: Dict[str, Operation] = {}
        for op in history.site_ops(site):
            if not op.is_read:
                continue
            writer = history.writer_of(op)
            got = 0 if writer is None else rank[writer]
            prev = best.get(op.obj)
            if prev is not None:
                prev_writer = history.writer_of(prev)
                prev_rank = 0 if prev_writer is None else rank[prev_writer]
                if got < prev_rank:
                    violations.append(
                        SessionViolation("monotonic-reads", site, op, prev)
                    )
                    continue  # keep the high-water mark
            best[op.obj] = op
    return violations


def monotonic_writes_violations(history: History) -> List[SessionViolation]:
    """A site's writes to an object installed out of program order."""
    violations: List[SessionViolation] = []
    for site in history.sites:
        last_write: Dict[str, Operation] = {}
        for op in history.site_ops(site):
            if not op.is_write:
                continue
            prev = last_write.get(op.obj)
            if prev is not None and op.time < prev.time:
                violations.append(
                    SessionViolation("monotonic-writes", site, op, prev)
                )
            last_write[op.obj] = op
    return violations


def writes_follow_reads_violations(history: History) -> List[SessionViolation]:
    """A write installed before (in version order) a write its site had
    already read from the same object."""
    rank = _version_index(history)
    violations: List[SessionViolation] = []
    for site in history.sites:
        highest_read: Dict[str, Operation] = {}
        for op in history.site_ops(site):
            if op.is_read:
                writer = history.writer_of(op)
                if writer is None:
                    continue
                prev = highest_read.get(op.obj)
                if prev is None or rank[writer] > rank[prev]:
                    highest_read[op.obj] = writer
            else:
                seen = highest_read.get(op.obj)
                if seen is not None and rank[op] < rank[seen]:
                    violations.append(
                        SessionViolation("writes-follow-reads", site, op, seen)
                    )
    return violations


def session_guarantee_report(history: History) -> Dict[str, List[SessionViolation]]:
    """All four guarantees at once."""
    return {
        "read-your-writes": read_your_writes_violations(history),
        "monotonic-reads": monotonic_reads_violations(history),
        "monotonic-writes": monotonic_writes_violations(history),
        "writes-follow-reads": writes_follow_reads_violations(history),
    }

