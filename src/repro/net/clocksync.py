"""Approximately synchronized clocks over a real transport (Definition 2).

The paper's Definition 2 assumes every site's clock stays within
``epsilon / 2`` of real time, maintained by "periodic resynchronizations
... [Cristian, NTP]".  The simulator models that with
:class:`repro.clocks.physical.SynchronizedClock`; this module *implements*
it for the TCP cluster, treating the object server's clock as the time
reference.

The estimator is the classic NTP four-timestamp exchange.  The client
records ``t0`` (send) and ``t3`` (receive) on its local clock; the server
stamps ``t1`` (receive) and ``t2`` (reply) on its clock.  Then::

    rtt    = (t3 - t0) - (t2 - t1)
    offset = ((t1 - t0) + (t2 - t3)) / 2      # server clock - local clock

and the offset estimate's error is at most ``rtt / 2`` (the true offset
lies within ``offset ± rtt/2`` for any split of the round trip between the
two directions).  Taking the sample with the smallest round trip — NTP's
clock filter — minimizes that bound.  A client whose estimated server
time is within ``err`` of the server's clock satisfies Definition 2's
"within epsilon/2 of the reference" with ``epsilon/2 = err``, so the
cluster-wide precision is ``epsilon = 2 * max_i err_i``: the value the
recorded trace is checked with.

Local time itself comes from a :class:`repro.clocks.RebasedClock` — the
running event loop's clock, rebased to 0 — optionally with a constant
``offset`` to inject known skew for experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.clocks.rebase import RebasedClock

__all__ = ["RebasedClock", "SyncSample", "ClockSyncEstimator", "SyncedClock"]


@dataclass(frozen=True)
class SyncSample:
    """One completed sync exchange, reduced to its NTP statistics."""

    t0: float  #: client send time (local clock)
    t1: float  #: server receive time (server clock)
    t2: float  #: server reply time (server clock)
    t3: float  #: client receive time (local clock)

    @property
    def rtt(self) -> float:
        """Round-trip time excluding server processing."""
        return (self.t3 - self.t0) - (self.t2 - self.t1)

    @property
    def offset(self) -> float:
        """Estimated ``server clock - local clock``."""
        return ((self.t1 - self.t0) + (self.t2 - self.t3)) / 2.0

    @property
    def error_bound(self) -> float:
        """Half the round trip: worst-case error of :attr:`offset`."""
        return self.rtt / 2.0


class ClockSyncEstimator:
    """NTP-style clock filter: keep the minimum-RTT sample.

    Before any sample arrives the estimator is *unsynchronized*: the
    offset reads 0 and the error bound is infinite.
    """

    def __init__(self) -> None:
        self.samples: List[SyncSample] = []
        self.best: Optional[SyncSample] = None
        #: Best estimate of ``server clock - local clock`` (0 if unsynced):
        #: the best sample's, kept as a plain attribute because every
        #: synchronized-clock reading adds it.
        self.offset = 0.0

    def add_sample(self, t0: float, t1: float, t2: float, t3: float) -> SyncSample:
        if t3 < t0:
            raise ValueError(f"reply before request: t0={t0}, t3={t3}")
        sample = SyncSample(t0, t1, t2, t3)
        if sample.rtt < 0:
            raise ValueError(f"negative round trip in sample {sample}")
        self.samples.append(sample)
        if self.best is None or sample.rtt < self.best.rtt:
            self.best = sample
            self.offset = sample.offset
        return sample

    @property
    def synchronized(self) -> bool:
        return self.best is not None

    @property
    def error_bound(self) -> float:
        """Worst-case error of :attr:`offset` (``inf`` if unsynced)."""
        return self.best.error_bound if self.best is not None else math.inf

    @property
    def epsilon_bound(self) -> float:
        """This clock's contribution to the cluster's pairwise precision:
        Definition 2 takes ``epsilon = 2 * max`` over the clients."""
        return 2.0 * self.error_bound


class SyncedClock:
    """A local clock corrected onto the server's timescale.

    ``now()`` returns the best estimate of the *server's* current clock
    reading — the approximately synchronized clock ``t_i`` the lifetime
    rules and the recorded trace use.  ``local()`` is the uncorrected
    reading (including any injected skew) of the :class:`RebasedClock`
    it corrects — one a site's device links share, so their offsets
    compose.
    """

    def __init__(self, local: RebasedClock) -> None:
        self._local = local
        self.estimator = ClockSyncEstimator()

    def local(self) -> float:
        return self._local()

    def now(self) -> float:
        # The local reading in place, as RebasedClock defines it: a
        # synchronized reading is one call.
        local = self._local
        return local.source() - local.t0 + local.offset + self.estimator.offset

    __call__ = now
