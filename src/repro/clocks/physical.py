"""Simulated physical clocks and clock synchronization (Section 3.2).

The paper's timed definitions are stated first for *perfectly synchronized*
clocks (Definition 1) and then for *approximately synchronized* clocks
(Definition 2): periodic resynchronizations guarantee that no two clocks
differ by more than ``epsilon`` units of time, typically by keeping each
clock within ``epsilon / 2`` of a time server [Cristian, NTP, ...].

Since we run on a simulator rather than a testbed, these classes model that
behaviour explicitly and deterministically:

* :class:`PerfectClock` — reads simulated real time exactly (``epsilon = 0``).
* :class:`DriftingClock` — a rate error (drift, in seconds/second) plus an
  initial offset; the error grows linearly between resynchronizations.
* :class:`SynchronizedClock` — a drifting clock that is resynchronized
  against a :class:`TimeServer` every ``sync_interval``; given drift bound
  ``rho`` and residual sync error ``sync_error``, its guaranteed precision
  is ``epsilon/2 = sync_error + rho * sync_interval``, matching the paper's
  "difference between any clock and the real time ... is never more than
  epsilon/2" assumption.

All clocks read the simulated real time through a ``time_source`` callable
so they plug directly into :mod:`repro.sim`.
"""

from __future__ import annotations

import random
from typing import Callable

TimeSource = Callable[[], float]


class PhysicalClock:
    """Base class: a clock that converts simulated real time to local time."""

    def __init__(self, time_source: TimeSource) -> None:
        self._time_source = time_source

    def real_time(self) -> float:
        """The simulator's ground-truth time (not observable by protocols)."""
        return self._time_source()

    def now(self) -> float:
        """The local clock reading; subclasses add skew/drift."""
        return self.real_time()

    @property
    def epsilon_bound(self) -> float:
        """A bound on ``2 * |now() - real_time()|``: the pairwise precision
        ``epsilon`` this clock contributes to. ``0.0`` for a perfect clock."""
        return 0.0


class PerfectClock(PhysicalClock):
    """Reads simulated real time exactly: the Definition-1 regime."""


class DriftingClock(PhysicalClock):
    """A clock with rate error ``drift`` (seconds gained per real second)
    and an initial ``offset``; never resynchronized."""

    def __init__(
        self,
        time_source: TimeSource,
        drift: float = 0.0,
        offset: float = 0.0,
    ) -> None:
        super().__init__(time_source)
        self.drift = float(drift)
        self._base_real = self.real_time()
        self._base_local = self._base_real + float(offset)

    def now(self) -> float:
        elapsed = self.real_time() - self._base_real
        return self._base_local + elapsed * (1.0 + self.drift)

    def set_to(self, local_time: float) -> None:
        """Step the clock to ``local_time`` (used by synchronization)."""
        self._base_real = self.real_time()
        self._base_local = float(local_time)

    @property
    def epsilon_bound(self) -> float:
        # Unbounded without resynchronization; report current error.
        return 2.0 * abs(self.now() - self.real_time())


class TimeServer:
    """A reference time source that answers queries with bounded error.

    ``read()`` returns the true time perturbed by at most ``max_error``
    (uniformly, from a seeded RNG), modelling the residual uncertainty of a
    Cristian-style synchronization round trip.
    """

    def __init__(
        self,
        time_source: TimeSource,
        max_error: float = 0.0,
        seed: int = 0,
    ) -> None:
        if max_error < 0:
            raise ValueError(f"max_error must be non-negative, got {max_error}")
        self._time_source = time_source
        self.max_error = float(max_error)
        self._rng = random.Random(seed)

    def read(self) -> float:
        if self.max_error == 0.0:
            return self._time_source()
        return self._time_source() + self._rng.uniform(-self.max_error, self.max_error)


class SynchronizedClock(PhysicalClock):
    """A drifting clock kept within ``epsilon/2`` of the time server.

    The owner must call :meth:`maybe_sync` whenever the site is scheduled
    (the simulator's node loop does this); if ``sync_interval`` has elapsed
    since the last synchronization the clock is stepped to the server's
    reading.  Between syncs the local error is bounded by
    ``server.max_error + |drift| * sync_interval``.
    """

    def __init__(
        self,
        time_source: TimeSource,
        server: TimeServer,
        drift: float = 0.0,
        offset: float = 0.0,
        sync_interval: float = 1.0,
    ) -> None:
        super().__init__(time_source)
        if sync_interval <= 0:
            raise ValueError(f"sync_interval must be positive, got {sync_interval}")
        self._clock = DriftingClock(time_source, drift=drift, offset=offset)
        self._server = server
        self.drift = float(drift)
        self.sync_interval = float(sync_interval)
        self._last_sync = self.real_time()
        self.sync_count = 0

    def maybe_sync(self) -> bool:
        """Resynchronize if the interval elapsed; returns True on a sync."""
        now_real = self.real_time()
        if now_real - self._last_sync < self.sync_interval:
            return False
        self._clock.set_to(self._server.read())
        self._last_sync = now_real
        self.sync_count += 1
        return True

    def now(self) -> float:
        self.maybe_sync()
        return self._clock.now()

    @property
    def epsilon_bound(self) -> float:
        half = self._server.max_error + abs(self.drift) * self.sync_interval
        return 2.0 * half


class ManualTime:
    """A trivially controllable time source for tests and doctests.

    >>> t = ManualTime()
    >>> clock = PerfectClock(t)
    >>> t.advance(5.0); clock.now()
    5.0
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        self._now += dt
        return self._now

    def set(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"cannot move time backwards ({t} < {self._now})")
        self._now = float(t)
