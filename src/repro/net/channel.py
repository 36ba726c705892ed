"""The asking end of one framed connection.

The protocol of Sections 5.1-5.2 is request/reply between a site and an
object's server.  :class:`Channel` is the side that asks: it dials,
says ``hello``, numbers requests, matches replies to them by ``req``
and bounds each wait by a deadline, all kept by one timer.  Everyone who
asks goes through it — the cache client
(:class:`~repro.net.client.NetCacheClient`, which adds clock sync and a
retransmit ladder on top), the cluster agents
(:class:`~repro.cluster.swim.SwimAgent`, whose probe rounds *are* the
retry mechanism) and ``repro cluster status``.

A call is *one attempt*: what to do about a timeout — retransmit under
the same id, suspect the peer, report ``unreachable`` — is the caller's
protocol, not the channel's.  Failures are the builtin ``TimeoutError``
and ``ConnectionError`` (both ``OSError`` on every supported Python),
each with a message that names the peer.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.faults import FaultInjector
from repro.net.framing import (
    BYE, HELLO, HELLO_ACK, PROTOCOL_VERSION, FrameConnection, dial,
)


class Channel:
    """One connection to ``host:port``, opened as ``client_id``.

    ``subscribe`` asks the server for its pushes.  ``faults`` attach to
    the connection at :meth:`start`, never before: the connection always
    *forms*, the protocol then runs over the unreliable link.
    ``on_frame(frame)`` sees every inbound frame after :meth:`start` —
    replies included, before the call they answer resumes — which is
    where a client reads epoch stamps and takes pushes.
    """

    def __init__(
        self,
        client_id: int,
        host: str,
        port: int,
        *,
        subscribe: bool = False,
        faults: Optional[FaultInjector] = None,
        on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.port = port
        self.subscribe = subscribe
        self.faults = faults
        self.on_frame = on_frame
        self.conn: Optional[FrameConnection] = None
        #: Calls awaiting their reply, by request id.
        self.pending: Dict[int, asyncio.Future] = {}
        # Their (deadline, kind, timeout); one timer, at the earliest.
        self._deadlines: Dict[int, Tuple[float, Any, float]] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = math.inf
        self._ids = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lost = False

    @property
    def connected(self) -> bool:
        """False before :meth:`open`, after :meth:`close`, and once the
        connection is known dead (calls then fail fast)."""
        return self.conn is not None and not self._lost

    def next_id(self) -> int:
        """Allocate a request id for a pinned :meth:`call` (ids are never
        reused; allocating without sending is safe)."""
        return next(self._ids)

    async def open(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Dial and say hello; returns the ``hello-ack``.  ``timeout``
        bounds the whole exchange.  Until :meth:`start`, inbound frames
        queue behind ``conn.recv()`` (the cache client's clock-sync
        rounds run there)."""
        if timeout is None:
            return await self._greet()
        try:
            return await asyncio.wait_for(self._greet(), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"no hello-ack from {self.host}:{self.port} in {timeout:g}s"
            ) from None

    async def _greet(self) -> Dict[str, Any]:
        conn = await dial(self.host, self.port)
        try:
            await conn.send({
                "kind": HELLO,
                "protocol": PROTOCOL_VERSION,
                "client_id": self.client_id,
                "subscribe": self.subscribe,
            })
            ack = await conn.recv()
            if ack is None:
                raise ConnectionError("server closed during handshake")
            if ack.get("kind") != HELLO_ACK:
                raise ConnectionError(f"bad handshake reply: {ack!r}")
            if ack.get("protocol") != PROTOCOL_VERSION:
                raise ConnectionError(
                    f"{self.host}:{self.port} speaks wire protocol "
                    f"{ack.get('protocol')!r}, this end {PROTOCOL_VERSION}"
                )
        except BaseException:
            # The loop keeps a registered transport alive: a connection
            # that never formed has to be dropped here, or its socket stays.
            conn.transport.abort()
            raise
        self.conn = conn
        self._loop = asyncio.get_running_loop()
        self._lost = False
        return ack

    def start(self) -> None:
        """Attach the faults and take inbound frames from ``data_received``
        from now on: each goes to ``on_frame``, then to its call."""
        self.conn.faults = self.faults
        self.conn.deliver(self._on_frames, self._on_end)

    async def call(
        self, frame: Dict[str, Any], timeout: float, req: Optional[int] = None
    ) -> Dict[str, Any]:
        """Send ``frame`` under a fresh id (or the pinned ``req``) and
        return the reply that carries it — an ``error`` reply included.
        One attempt: ``TimeoutError`` after ``timeout``
        seconds, ``ConnectionError`` when the connection is or goes down
        (nothing is written to one already known dead)."""
        conn = self.conn
        if conn is None or self._lost:
            raise ConnectionError(
                f"connection to {self.host}:{self.port} is down"
            )
        if req is None:
            req = next(self._ids)
        sent = dict(frame, req=req)
        loop = self._loop
        future = self.pending[req] = loop.create_future()
        deadline = loop.time() + timeout
        self._deadlines[req] = (deadline, frame.get("kind"), timeout)
        if deadline < self._armed_at:
            self._arm(deadline)
        try:
            await conn.send(sent)
            return await future
        finally:
            self.pending.pop(req, None)
            self._deadlines.pop(req, None)

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(when, self._expire) if when < math.inf else None
        self._armed_at = when

    def _expire(self) -> None:
        """Fail every call past its deadline; re-arm at the next one."""
        due, self._timer = max(self._armed_at, self._loop.time()), None
        for req, (deadline, kind, timeout) in self._deadlines.items():
            future = self.pending.get(req)
            if deadline <= due and future is not None and not future.done():
                future.set_exception(TimeoutError(
                    f"no reply to {kind} #{req} in {timeout:g}s"))
        self._arm(min((d for d, _, _ in self._deadlines.values() if d > due),
                      default=math.inf))

    def _on_frames(self, frames: List[Dict[str, Any]]) -> None:
        on_frame, pending = self.on_frame, self.pending
        for frame in frames:
            if on_frame is not None:
                on_frame(frame)
            future = pending.get(frame.get("req"))
            # An unknown id is the duplicate of an answered request, or
            # the reply to one that timed out: ids are never reused, so
            # it can resolve nobody else's call.
            if future is not None and not future.done():
                future.set_result(frame)

    def _on_end(self, error: Optional[Exception]) -> None:
        self._lost = True
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError(
                    f"connection to {self.host}:{self.port} lost"
                ))

    async def close(self, bye: bool = True) -> None:
        """Say ``bye`` (a clean leave) and close; pending calls fail with
        ``ConnectionError``."""
        conn, self.conn = self.conn, None
        self._arm(math.inf)
        if conn is not None:
            if bye:
                await conn.send({"kind": BYE})
            await conn.close()
