"""An asyncio implementation of the timed (TSC) cache protocol.

Everything else in this repository runs on the deterministic
discrete-event simulator, where effective times and epsilon are exact.
This module is the *live* counterpart: the same lifetime rules
(Sections 5.1-5.2) implemented over real ``asyncio`` concurrency and the
wall clock, with artificial network latency injected via
``asyncio.sleep``.  It exists to show the protocol is not an artifact of
simulation — the recorded executions pass the same checkers — at the cost
of timing precision (wall-clock scheduling jitter), which is why the
quantitative experiments stay on the simulator.

Both halves drive the shared engines of :mod:`repro.engine` — the same
:class:`~repro.engine.ServerEngine` and :class:`~repro.engine.CacheEngine`
the simulator and TCP stacks run, exchanging the same frames — wrapped
here in asyncio latency and locking only.

The clock is ``loop.time()`` rebased to 0 at session start; all deltas
and latencies are in (real) seconds, so keep them small in tests.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.clocks.rebase import RebasedClock
from repro.core.history import History
from repro.engine import CacheEngine, ServerEngine
from repro.engine.stats import ClientStats
from repro.engine.versions import CacheEntry, PhysicalVersion
from repro.sim.trace import TraceRecorder, UniqueValueFactory


class AioObjectServer:
    """Authoritative in-process store with injected request latency —
    an asyncio driver over :class:`repro.engine.ServerEngine`."""

    def __init__(self, latency: float = 0.002, initial_value: Any = 0) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.latency = latency
        self.initial_value = initial_value
        self._lock = asyncio.Lock()
        self.engine = ServerEngine(lambda: 0.0, initial_value=initial_value)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.engine.clock = clock

    @property
    def store(self) -> Dict[str, PhysicalVersion]:
        return self.engine.store

    @property
    def requests(self) -> int:
        return self.engine.requests

    async def request(self, client_id: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One request frame in, its reply frame out, after the injected
        latency.  (No request ids here — a call cannot be lost — so there
        is nothing to replay.)"""
        await asyncio.sleep(self.latency)
        async with self._lock:
            return self.engine.execute(client_id, frame).reply


class AioTimedCacheClient:
    """The TSC cache client (rules 1-3) over asyncio — a driver over
    :class:`repro.engine.CacheEngine`."""

    def __init__(
        self,
        client_id: int,
        server: AioObjectServer,
        clock: Callable[[], float],
        delta: float = math.inf,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.client_id = client_id
        self.server = server
        self.clock = clock
        self.recorder = recorder
        self.engine = CacheEngine(site_id=client_id, delta=delta)
        self.stats = self.engine.stats

    @property
    def cache(self) -> Dict[str, CacheEntry]:
        return self.engine.cache

    @property
    def context(self) -> float:
        return self.engine.context

    @property
    def delta(self) -> float:
        return self.engine.delta

    async def read(self, obj: str) -> Any:
        op = self.engine.begin_read(obj, self.clock())
        value = op.value
        if not op.hit:
            reply = await self.server.request(self.client_id, op.frame)
            value = self.engine.finish_read(op, reply, self.clock())
        if self.recorder is not None:
            self.recorder.record_read(self.client_id, obj, value, self.clock())
        return value

    async def write(self, obj: str, value: Any) -> float:
        """Write through; the install instant is the effective time (the
        writer keeps its own value cached even in the measure-zero case
        of an exact install-time tie, which is SC-safe: its reads
        serialize before the winner's)."""
        op = self.engine.begin_write(obj, value, self.clock())
        reply = await self.server.request(self.client_id, op.frame)
        alpha = self.engine.finish_write(op, reply, self.clock())
        if self.recorder is not None:
            self.recorder.record_write(self.client_id, obj, value, alpha)
        return alpha


class AioSession:
    """One live deployment: a server, N clients, a shared rebased clock.

    >>> async def workload(session, client):
    ...     await client.write("x", session.values.next_value(client.client_id))
    ...     await client.read("x")
    """

    def __init__(
        self,
        n_clients: int,
        delta: float = math.inf,
        latency: float = 0.002,
        initial_value: Any = 0,
    ) -> None:
        self.server = AioObjectServer(latency=latency, initial_value=initial_value)
        self.recorder = TraceRecorder(initial_value=initial_value)
        self.values = UniqueValueFactory()
        self._clock = RebasedClock()
        self.clients = [
            AioTimedCacheClient(
                i, self.server, self.now, delta=delta, recorder=self.recorder
            )
            for i in range(n_clients)
        ]
        self.server.bind_clock(self.now)

    def now(self) -> float:
        return self._clock.now()

    async def run(
        self,
        workload: Callable[["AioSession", AioTimedCacheClient], Awaitable[None]],
    ) -> History:
        """Run one workload coroutine per client, concurrently."""
        self.now()  # pin t0 before anyone starts
        await asyncio.gather(*(workload(self, client) for client in self.clients))
        return self.recorder.history()

    def aggregate_stats(self) -> ClientStats:
        total = ClientStats()
        for client in self.clients:
            total = total.merge(client.stats)
        return total


def run_aio_session(
    n_clients: int,
    workload: Callable[[AioSession, AioTimedCacheClient], Awaitable[None]],
    delta: float = math.inf,
    latency: float = 0.002,
) -> Tuple[History, AioSession]:
    """Convenience wrapper: build a session, drive it with asyncio.run,
    and return both the recorded history and the session (for stats)."""
    session = AioSession(n_clients, delta=delta, latency=latency)
    history = asyncio.run(session.run(workload))
    return history, session
