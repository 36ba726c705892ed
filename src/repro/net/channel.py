"""The asking end of one framed connection.

The protocol of Sections 5.1-5.2 is request/reply between a site and an
object's server.  :class:`Channel` is the side that asks: it dials, says
``hello``, and keeps the whole life of every request in one registry.
It numbers the request, holds it back while the window is full, sends
it, re-sends it under the same id when its deadline passes, and resolves
it where the reply lands, all with one timer armed at the earliest
deadline.  Everyone who asks goes through it — a cache site's links
(:class:`~repro.net.client.DeviceLink`, which adds clock sync; the site
adds the lifetime rules on top), the cluster agents
(:class:`~repro.cluster.swim.SwimAgent`, whose probe rounds *are* the
retry mechanism) and ``repro cluster status``.

Each request carries its own retransmit ladder: after ``timeout`` it is
re-sent under the same id, then after ``timeout * backoff``, and so on
for ``retries`` re-sends; the reply to any attempt answers it, and a
duplicate reply is dropped.  ``TimeoutError`` comes after the last
attempt.  With ``retries=0``, a call is one attempt, and what to do about
a timeout (suspect the peer, report ``unreachable``) is the caller's
protocol.  ``window`` bounds how many requests are outstanding at once;
one past it waits unsent, in FIFO order, and its deadline starts when it
leaves.  Failures are the builtin ``TimeoutError`` and
``ConnectionError`` (both ``OSError`` on every supported Python), each
with a message that names the peer or the request.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.faults import FaultInjector
from repro.net.framing import (
    BYE, HELLO, HELLO_ACK, PROTOCOL_VERSION, FrameConnection, dial,
)


@dataclass(eq=False, slots=True)
class _Request:
    """One request in the registry: the frame as sent, its ladder, and
    what turns its reply into the future's result."""

    future: asyncio.Future
    sent: Dict[str, Any]
    timeout: float
    retries: int
    backoff: float
    finish: Optional[Callable[[Dict[str, Any]], Any]]
    attempts: int = 0
    #: ``None`` while it waits for the window.
    deadline: Optional[float] = None


class Channel:
    """One connection to ``host:port``, opened as ``client_id``.

    ``subscribe`` asks the server for its pushes.  ``faults`` attach to
    the connection at :meth:`attach`, never before: the connection always
    *forms*, the protocol then runs over the unreliable link.
    ``on_frame(frame)`` sees every inbound frame after :meth:`attach` —
    replies included, before the request they answer resolves — which is
    where a client reads epoch stamps and takes pushes.  ``window`` bounds
    the outstanding requests (``None``: no bound) and ``on_retry()`` is
    called for every re-send.
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
        window: Optional[int] = None,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.client_id = client_id
        self.host = host
        self.port = port
        self.subscribe = subscribe
        self.faults = faults
        self.on_frame = on_frame
        self.window = math.inf if window is None else window
        self.on_retry = on_retry
        self.conn: Optional[FrameConnection] = None
        #: Requests sent and not yet settled (at most ``window``).
        self.in_flight = 0
        self._requests: Dict[int, _Request] = {}
        self._waiting: Deque[int] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = math.inf
        self._ids = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: False before :meth:`open`, after :meth:`close`, and once the
        #: connection is known dead (requests then fail fast).
        self.connected = False

    @property
    def pending(self) -> Dict[int, asyncio.Future]:
        """Unsettled requests by id, sent or waiting for the window."""
        return {req: request.future for req, request in self._requests.items()}

    def next_id(self) -> int:
        """Allocate a request id to pin (ids are never reused;
        allocating without sending is safe)."""
        return next(self._ids)

    async def open(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Dial and say hello; returns the ``hello-ack``.  ``timeout``
        bounds the whole exchange.  Until :meth:`attach`, inbound frames
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
        self.connected = True
        return ack

    def attach(self) -> None:
        """Attach the faults and take inbound frames from ``buffer_updated``
        from now on: each goes to ``on_frame``, then to its request."""
        self.conn.faults = self.faults
        self.conn.deliver(self._on_frames, self._on_end)

    # -- the two entry points ---------------------------------------------------

    async def call(
        self, frame: Dict[str, Any], timeout: float, req: Optional[int] = None,
        *, retries: int = 0, backoff: float = 1.0,
    ) -> Dict[str, Any]:
        """Send ``frame`` under a fresh id (or the pinned ``req``) through
        the awaited ``FrameConnection.send`` and return the reply that
        carries it — an ``error`` reply included.  ``TimeoutError`` after
        the last attempt, ``ConnectionError`` when the connection is or
        goes down (nothing is written to one already known dead)."""
        request = self._enter(frame, timeout, req, retries, backoff, None)
        future = request.future
        try:
            if request.deadline is not None:
                await self.conn.send(request.sent)
            return await future
        finally:
            req = request.sent["req"]
            if self._requests.get(req) is request:  # cancelled, or unsendable
                self._settle(req)

    def start(
        self, frame: Dict[str, Any], timeout: float, req: Optional[int] = None,
        *, retries: int = 0, backoff: float = 1.0,
        finish: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> asyncio.Future:
        """:meth:`call` without waiting: write ``frame`` now (or when the
        window opens) and return the future of its reply — or of
        ``finish(reply)``, run where the reply lands, whose exception
        fails the future instead.  Raises ``ConnectionError`` at once on
        a connection known dead."""
        request = self._enter(frame, timeout, req, retries, backoff, finish)
        if request.deadline is not None:
            try:
                self.conn.write(request.sent)
            except BaseException:
                self._settle(request.sent["req"])
                raise
        return request.future

    def _enter(
        self, frame: Dict[str, Any], timeout: float, req: Optional[int],
        retries: int, backoff: float,
        finish: Optional[Callable[[Dict[str, Any]], Any]],
    ) -> _Request:
        """Register a request; it leaves now iff the window has room
        (its ``deadline`` is then set, and the caller writes it)."""
        if not self.connected:
            raise ConnectionError(
                f"connection to {self.host}:{self.port} is down"
            )
        if req is None:
            req = next(self._ids)
        elif req in self._requests:
            raise ValueError(f"request #{req} is still outstanding")
        request = self._requests[req] = _Request(
            self._loop.create_future(), dict(frame, req=req),
            timeout, retries, backoff, finish,
        )
        if self.in_flight < self.window:
            self._leave(request)
        else:
            self._waiting.append(req)
        return request

    # -- the registry -------------------------------------------------------------

    def _leave(self, request: _Request) -> None:
        """Count ``request`` as outstanding and start its deadline."""
        self.in_flight += 1
        request.attempts = 1
        request.deadline = deadline = self._loop.time() + request.timeout
        if deadline < self._armed_at:
            self._arm(deadline)

    def _settle(self, req: int) -> _Request:
        """Take ``req`` out of the registry; the slot it held goes to the
        first request waiting for the window, which leaves now."""
        request = self._requests.pop(req)
        if request.deadline is None:
            self._waiting.remove(req)
            return request
        self.in_flight -= 1
        waiting, conn = self._waiting, self.conn
        while waiting and self.in_flight < self.window and self.connected:
            following = self._requests[waiting.popleft()]
            self._leave(following)
            try:
                conn.write(following.sent)
            except Exception as exc:  # unframeable: fail it, not the caller
                self._settle(following.sent["req"])
                following.future.set_exception(exc)
        return request

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(when, self._expire) if when < math.inf else None
        self._armed_at = when

    def _expire(self) -> None:
        """Re-send every request past its deadline that has a rung left,
        fail the others; re-arm at the next deadline."""
        now = self._loop.time()
        due, self._timer = max(self._armed_at, now), None
        for req, request in list(self._requests.items()):
            deadline = request.deadline
            if deadline is None or deadline > due:
                continue
            future = request.future
            if future.done():  # cancelled by whoever started it
                self._settle(req)
            elif request.attempts <= request.retries:
                request.attempts += 1
                request.timeout *= request.backoff
                request.deadline = now + request.timeout
                if self.on_retry is not None:
                    self.on_retry()
                self.conn.write(request.sent)
            else:
                self._settle(req)
                kind = request.sent.get("kind")
                future.set_exception(TimeoutError(
                    f"no reply to {kind} #{req} in {request.timeout:g}s"
                    if request.attempts == 1 else
                    f"no reply to {kind} #{req} after {request.attempts} attempts"
                ))
        self._arm(min((r.deadline for r in self._requests.values()
                       if r.deadline is not None), default=math.inf))

    def _on_frames(self, frames: List[Dict[str, Any]]) -> None:
        on_frame, requests = self.on_frame, self._requests
        for frame in frames:
            if on_frame is not None:
                on_frame(frame)
            req = frame.get("req")
            # An unknown id is the duplicate of an answered request, or
            # the reply to one that timed out: ids are never reused, so
            # it can resolve nobody else's request.
            if req not in requests:
                continue
            request = self._settle(req)
            future = request.future
            if future.done():
                continue
            if request.finish is None:
                future.set_result(frame)
                continue
            try:
                future.set_result(request.finish(frame))
            except Exception as exc:
                future.set_exception(exc)

    def _on_end(self, error: Optional[Exception]) -> None:
        self.connected = False
        requests, self._requests = self._requests, {}
        self._waiting.clear()
        self.in_flight = 0
        self._arm(math.inf)
        for request in requests.values():
            if not request.future.done():
                request.future.set_exception(ConnectionError(
                    f"connection to {self.host}:{self.port} lost"
                ))

    async def close(self, bye: bool = True) -> None:
        """Say ``bye`` (a clean leave) and close; unsettled requests fail
        with ``ConnectionError``."""
        conn, self.conn = self.conn, None
        self.connected = False
        self._arm(math.inf)
        if conn is not None:
            if bye:
                await conn.send({"kind": BYE})
            await conn.close()
