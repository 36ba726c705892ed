"""The live stack's one clock, and a source rebased to 0 at first reading.

Under :mod:`repro.net`, :mod:`repro.cluster`, :mod:`repro.ring` and the
load worker "now" is the running event loop's ``time()`` — the clock its
``call_later`` timers and ``asyncio.sleep`` already run on — read through
:func:`loop_clock`/:func:`loop_time`.  On the stock loop that *is*
``time.monotonic``; on :class:`repro.sim.vtime.VirtualTimeLoop` it is a
counter, and the stack cannot tell which.  Its absolute value is
arbitrary (and differs across processes).  Rebasing to 0 at session start
keeps recorded traces small and human-readable, and gives every live
module the *same* convention: deltas and latencies are seconds since the
node came up.  Cross-process offsets between two rebased clocks are
exactly what :class:`repro.net.clocksync.ClockSyncEstimator` estimates.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional


def loop_clock() -> Callable[[], float]:
    """The running loop's ``time`` — or, with no loop running
    (offline/sim use), the monotonic clock the stock loop would read."""
    try:
        return asyncio.get_running_loop().time
    except RuntimeError:
        return time.monotonic


def loop_time() -> float:
    """One reading of :func:`loop_clock`: "now" for every live module."""
    return loop_clock()()


class RebasedClock:
    """``source()`` rebased so that the first reading is 0.

    ``source`` defaults to the running event loop's monotonic time; it is
    resolved lazily so a :class:`RebasedClock` may be constructed before
    any loop exists.  ``offset`` adds a constant skew to every reading,
    used to inject imperfect synchronization into ``repro.net``
    experiments.

    A reading is the one expression ``source() - t0 + offset``.  Until
    the first reading ``source`` is a stand-in that resolves the real
    source and pins ``t0`` before the rest of the expression reads it,
    so the expression holds from the first reading on and costs one call
    after it; :class:`repro.net.clocksync.SyncedClock` evaluates it in
    place, in its own single call.
    """

    def __init__(
        self,
        source: Optional[Callable[[], float]] = None,
        offset: float = 0.0,
    ) -> None:
        self._given = source
        self.source: Callable[[], float] = self._first
        self.t0: Optional[float] = None
        self.offset = float(offset)

    def _first(self) -> float:
        source = self._given if self._given is not None else loop_clock()
        reading = source()
        self.source, self.t0 = source, reading
        return reading

    def now(self) -> float:
        """Seconds since the first reading, plus the configured offset."""
        return self.source() - self.t0 + self.offset

    __call__ = now
