"""Log-bucketed latency histograms with a bounded relative error.

The load generator's recording substrate, shaped after HdrHistogram:
values (seconds) are quantised to integer microsecond *ticks* and stored
in buckets whose width doubles every power of two while keeping
``2**SUB_BITS`` linear sub-buckets per doubling.  That gives a uniform
**relative** error bound — every recorded value lies in a bucket whose
width is at most ``2**-SUB_BITS`` (~3.1%) of the value itself — instead
of the fixed-edge absolute error of :class:`repro.obs.metrics.Histogram`.
Tail quantiles (p99.9 at 400 ms next to a p50 of 800 µs) therefore stay
honest without choosing bucket edges per scenario.

The index math, for ``M = 2**SUB_BITS``:

* ticks below ``2*M`` get one bucket each (exact representation);
* otherwise with ``e = ticks.bit_length() - 1`` and ``shift = e - SUB_BITS``
  the index is ``(shift + 1) * M + (ticks >> shift) - M`` — the top
  ``SUB_BITS + 1`` significant bits, so consecutive indexes tile the
  whole range with no gaps.

Quantiles return the bucket's **upper** edge, so an estimate never
flatters the tail: ``true <= estimate <= true * (1 + 2**-SUB_BITS)``
(plus the half-tick from rounding to microseconds).

Buckets are a sparse dict, so a histogram is cheap to :meth:`merge`
bucket-exactly — how the scenario engine folds its workers' histograms
into one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

#: Linear sub-buckets per power-of-two: relative error <= 2**-5 ~ 3.1%.
SUB_BITS = 5
_M = 1 << SUB_BITS

#: One tick = one microsecond; 0 is representable (sub-tick latencies).
TICKS_PER_SECOND = 1_000_000


def _index_for(ticks: int) -> int:
    if ticks < 2 * _M:
        return ticks
    shift = ticks.bit_length() - 1 - SUB_BITS
    return ((shift + 1) << SUB_BITS) + ((ticks >> shift) - _M)


def _upper_ticks(index: int) -> int:
    """Inclusive upper edge (in ticks) of the bucket at ``index``."""
    if index < 2 * _M:
        return index
    shift = (index >> SUB_BITS) - 1
    sub = (index & (_M - 1)) + _M
    return ((sub + 1) << shift) - 1


class LatencyHistogram:
    """A mergeable log-bucketed histogram of latencies in seconds."""

    __slots__ = ("counts", "count", "sum_ticks", "min_ticks", "max_ticks")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum_ticks = 0
        self.min_ticks: Optional[int] = None
        self.max_ticks: Optional[int] = None

    def record(self, seconds: float) -> None:
        ticks = max(0, int(round(seconds * TICKS_PER_SECOND)))
        index = _index_for(ticks)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum_ticks += ticks
        if self.min_ticks is None or ticks < self.min_ticks:
            self.min_ticks = ticks
        if self.max_ticks is None or ticks > self.max_ticks:
            self.max_ticks = ticks

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into self (bucket-exact: same index scheme)."""
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.sum_ticks += other.sum_ticks
        for bound, pick in (("min_ticks", min), ("max_ticks", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                mine = getattr(self, bound)
                setattr(self, bound, theirs if mine is None else pick(mine, theirs))
        return self

    # -- reading ---------------------------------------------------------

    def quantile(self, q: float) -> float:
        """The q-quantile in seconds (upper bucket edge — never an
        underestimate; at most ``(1 + 2**-SUB_BITS)`` times the true
        value)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        running = 0
        for index in sorted(self.counts):
            running += self.counts[index]
            if running >= target:
                return _upper_ticks(index) / TICKS_PER_SECOND
        return (self.max_ticks or 0) / TICKS_PER_SECOND

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.sum_ticks / self.count / TICKS_PER_SECOND

    @property
    def max(self) -> float:
        return (self.max_ticks or 0) / TICKS_PER_SECOND

    @property
    def min(self) -> float:
        return (self.min_ticks or 0) / TICKS_PER_SECOND

    def percentiles(
        self, qs: Iterable[float] = (0.5, 0.99, 0.999)
    ) -> Dict[str, float]:
        """``{"p50": ..., "p99": ..., "p99.9": ...}`` in seconds."""
        out = {}
        for q in qs:
            label = f"{q * 100:g}"
            out[f"p{label}"] = self.quantile(q)
        return out

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.percentiles()
        return (
            f"LatencyHistogram(n={self.count}, p50={p['p50']:.6f}, "
            f"p99={p['p99']:.6f}, max={self.max:.6f})"
        )
