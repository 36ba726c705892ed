"""Ground-truth metrics computed from execution traces.

The simulator records effective times for every operation, so staleness and
timedness can be measured exactly — no instrumentation inside the protocol
is needed (and none can lie).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.history import History
from repro.core.operations import Operation
from repro.core.timed import late_reads, min_timed_delta


def read_staleness(history: History, read_op: Operation) -> float:
    """How long the value returned by ``read_op`` had been overwritten.

    0 when the read returned the newest value (w.r.t. effective times).
    Otherwise ``T(r) - T(w_next)`` where ``w_next`` is the earliest write
    that superseded the value the read returned.  A read of the initial
    value is superseded by the first write to the object.
    """
    writer = history.writer_of(read_op)
    t_writer = -math.inf if writer is None else writer.time
    superseded_at: Optional[float] = None
    for cand in history.writes_to(read_op.obj):
        if cand is writer:
            continue
        if t_writer < cand.time <= read_op.time:
            superseded_at = cand.time if superseded_at is None else min(superseded_at, cand.time)
    if superseded_at is None:
        return 0.0
    return read_op.time - superseded_at


@dataclass
class StalenessReport:
    """Distribution of read staleness over a trace."""

    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def stale_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s > 0) / len(self.samples)

    def percentile(self, q: float) -> float:
        """q in [0, 1]; nearest-rank percentile."""
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]


def staleness_report(history: History) -> StalenessReport:
    """Staleness of every read in the trace."""
    return StalenessReport([read_staleness(history, r) for r in history.reads])


def timedness_report(history: History, delta: float, epsilon: float = 0.0) -> Dict[str, float]:
    """How timed the trace is for a given delta: late-read fraction and the
    trace's own threshold (the delta that would make it fully timed)."""
    reads = history.reads
    late = late_reads(history, delta, epsilon)
    return {
        "delta": delta,
        "reads": len(reads),
        "late_reads": len(late),
        "late_fraction": len(late) / len(reads) if reads else 0.0,
        "threshold": min_timed_delta(history, epsilon),
    }
