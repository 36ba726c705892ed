"""Length-prefixed frames over a byte stream: JSON, or packed.

The wire format of ``repro.net`` (see docs/NET_PROTOCOL.md): every
message is one *frame* —

    +----------------+----------------------------------+
    | 4 bytes        | N bytes                          |
    | N (big-endian) | UTF-8 JSON object | packed frame |
    +----------------+----------------------------------+

JSON keeps the protocol language-agnostic and debuggable; the length
prefix makes message boundaries explicit so a frame is either delivered
whole or not at all.  Payload values are restricted to JSON scalars,
which is all the lifetime protocol needs (object names, values,
timestamps).  The four kinds a loaded connection is made of — the 1-unit
control messages of Section 5.2, the write and its ack — also have a
``struct``-*packed* form (:data:`PACKED_LAYOUTS`), told from JSON by the
payload's first byte.  There is one codec and no switch:
:func:`encode_frame` packs a message that is exactly its kind's layout
and emits JSON for any other, :func:`decode_frame` takes both and
returns the same dict, so nothing above this module sees which form
travelled.  ``nc``, a hex dump and ``python -m repro.net < captured``
(one JSON line per frame, either form) are enough to follow a session.

:class:`FrameConnection` is the one transport of ``repro.net`` and
``repro.cluster``: an ``asyncio.Protocol`` that cuts frames out of the
bytes the socket delivers, with an optional
:class:`repro.net.faults.FaultInjector` that drops, delays, duplicates,
or partitions frames.  :func:`dial` opens one, :func:`listen` accepts
them.
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections import deque
from typing import (
    Any, Awaitable, Callable, Container, Deque, Dict, List, Optional, Set,
)

from repro.engine import messages

#: Hard cap on a frame's payload size; a peer announcing more is corrupt
#: (or malicious) and the connection is torn down rather than buffered.
MAX_FRAME_BYTES = 1 << 20

#: Wire protocol version carried in the HELLO exchange.
PROTOCOL_VERSION = 4

# Handshake and housekeeping kinds specific to the wire protocol; the
# data-plane kinds (fetch/validate/write/push/...) come from
# :mod:`repro.engine.messages`.
HELLO = "hello"
HELLO_ACK = "hello-ack"
SYNC = "sync"
SYNC_ACK = "sync-ack"
BYE = "bye"
ERROR = "error"

# Cluster control plane (repro.cluster; docs/CLUSTER.md).  Probe frames
# piggyback gossip (a ClusterView wire payload) and are answered by the
# server's handler task for them — never deduped.
#: Agent -> agent: direct liveness probe, carries piggybacked gossip.
PING = "ping"
#: The probe's answer, carrying the responder's gossip back.
PING_ACK = "ping-ack"
#: Agent -> proxy agent: "ping this target on my behalf" (SWIM's
#: indirect probe — disambiguates a dead member from a dead *link*).
PING_REQ = "ping-req"
#: Proxy -> requester: whether the indirect probe got through.
PING_REQ_ACK = "ping-req-ack"
#: Anyone -> server: send me your current ring (epoch + layout).
RING_FETCH = "ring-fetch"
#: The ring reply: ``{"epoch": int, "ring": dict | null}``.
RING_STATE = "ring-state"
#: Anyone -> server: send me your cluster view (``repro cluster status``).
CLUSTER_STATE = "cluster-state"
#: The view reply: ``{"epoch": int, "view": dict | null}``.
CLUSTER_VIEW = "cluster-view"
#: Coordinator -> new primary: apply the promotion rule
#: ``Context := max(known, t_promote - bound)`` and mark versions older
#: than the detection bound *old* (re-proved on first touch).
PROMOTE = "promote"
PROMOTE_ACK = "promote-ack"
#: Coordinator -> source device: push the listed partition moves to
#: their new holders before the epoch cutover (handoff replay).
HANDOFF = "handoff"
HANDOFF_ACK = "handoff-ack"

#: Frame kinds the server hands to its cluster agent (or answers itself
#: for RING_FETCH / CLUSTER_STATE), outside the exactly-once data plane.
CLUSTER_KINDS = frozenset({
    PING, PING_REQ, RING_FETCH, CLUSTER_STATE, PROMOTE, HANDOFF,
})

_LENGTH = struct.Struct(">I")
_U32 = _LENGTH  # a packed ``epoch`` has the prefix's shape
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: Bits of a packed frame's flags byte.
PACKED_FLAGS = {"epoch": 0x01, "installed": 0x02, "json-value": 0x04}

#: The packed layouts, ``tag: (kind, fields in wire order, flags the kind
#: may set)`` — the table of docs/NET_PROTOCOL.md, which a test compares
#: with this one.  After the tag and flags bytes ``req`` is a u32, a time
#: (``alpha``/``omega``) an IEEE double, ``obj`` u8-counted UTF-8,
#: ``epoch`` a u32 sent iff its flag is set and ``value`` the tail: the
#: UTF-8 of a string, or under ``json-value`` the JSON text of another
#: scalar.  ``installed`` is its flag.  Tags stay below 0x09, where no
#: JSON payload can start.
PACKED_LAYOUTS = {
    0x01: (messages.VALIDATE, ("req", "alpha", "obj", "epoch"), ("epoch",)),
    0x02: (messages.STILL_VALID, ("req", "omega", "obj", "epoch"), ("epoch",)),
    0x03: (messages.WRITE, ("req", "obj", "epoch", "value"),
           ("epoch", "json-value")),
    0x04: (messages.WRITE_ACK, ("req", "alpha", "obj", "epoch"),
           ("epoch", "installed")),
}
_EPOCH, _INSTALLED, _JSON_VALUE = PACKED_FLAGS.values()
_JSON_SCALARS = (int, float, bool, type(None))


def _codec_row(tag: int) -> tuple:
    kind, fields, flags = PACKED_LAYOUTS[tag]
    time = next((f for f in fields if f in ("alpha", "omega")), None)
    # The fixed head: tag, flags, req, the time where the kind has one,
    # and the length of ``obj``.
    head = struct.Struct(">BBI" + "d" * (time is not None) + "B")
    allowed = sum(PACKED_FLAGS[flag] for flag in flags)
    # A message without ``epoch`` holds ``kind`` and the other fields,
    # plus ``installed``, which travels as a flag.
    keys = len(fields) + ("installed" in flags)
    return tag, kind, head, time, allowed, keys


_BY_TAG = {tag: _codec_row(tag) for tag in PACKED_LAYOUTS}
_BY_KIND = {row[1]: row for row in _BY_TAG.values()}


class FrameError(Exception):
    """A malformed frame: oversized, truncated, not a JSON object and
    not a packed layout either."""


def _pack(row: tuple, message: Dict[str, Any]) -> Optional[bytes]:
    """The packed payload of ``message`` — iff its keys are exactly its
    layout's (``epoch`` optional) and every field fits, else ``None``."""
    tag, _, head, time, allowed, keys = row
    flags, tail = 0, b""
    try:
        req = message["req"]
        if type(req) is not int:
            return None
        if len(message) != keys:
            epoch = message["epoch"]
            if len(message) != keys + 1 or type(epoch) is not int:
                return None
            flags = _EPOCH
            tail = _U32.pack(epoch)
        if allowed & _INSTALLED:
            installed = message["installed"]
            if installed is True:
                flags |= _INSTALLED
            elif installed is not False:
                return None
        elif allowed & _JSON_VALUE:
            value = message["value"]
            if type(value) is str:
                tail += value.encode()
            elif type(value) in _JSON_SCALARS:
                flags |= _JSON_VALUE
                tail += _encode_json(value).encode()
            else:
                return None
        obj = message["obj"]
        if type(obj) is not str:
            return None
        obj = obj.encode()
        if time is None:
            return head.pack(tag, flags, req, len(obj)) + obj + tail
        t = message[time]
        if type(t) is not float:
            return None
        return head.pack(tag, flags, req, t, len(obj)) + obj + tail
    except (KeyError, ValueError, struct.error):
        return None  # a key missing, a lone surrogate, a number out of range


def _unpack(row: tuple, payload: bytes) -> Dict[str, Any]:
    _, kind, head, time, allowed, _ = row
    try:
        fixed = head.unpack_from(payload)
        flags = fixed[1]
        if flags & ~allowed:
            raise FrameError(f"flags {flags:#04x} on a packed {kind}")
        message = {"kind": kind, "req": fixed[2]}
        if time is not None:
            message[time] = fixed[3]
        start, at = head.size, head.size + fixed[-1]
        if at > len(payload):
            raise FrameError(f"packed {kind} ends inside obj")
        message["obj"] = payload[start:at].decode()
        if flags & _EPOCH:
            (message["epoch"],) = _U32.unpack_from(payload, at)
            at += 4
        if allowed & _INSTALLED:
            message["installed"] = (flags & _INSTALLED) != 0
        elif allowed & _JSON_VALUE:
            value = payload[at:].decode()
            message["value"] = json.loads(value) if flags & _JSON_VALUE else value
            at = len(payload)
        if at != len(payload):
            raise FrameError(f"{len(payload) - at} bytes trail a packed {kind}")
    except (struct.error, ValueError) as exc:
        # Cut short, or bad UTF-8 or JSON text (both are ValueErrors).
        raise FrameError(f"undecodable packed {kind}: {exc}") from None
    return message


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to ``length || payload`` bytes: packed if
    it is exactly one of :data:`PACKED_LAYOUTS`, JSON otherwise."""
    row = _BY_KIND.get(message.get("kind"))
    payload = None if row is None else _pack(row, message)
    if payload is None:
        payload = _encode_json(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload of either form to the same dict: packed if
    its first byte is a tag of :data:`PACKED_LAYOUTS`, else JSON whose
    top-level value must be an object — which no payload starting with
    an unassigned tag is."""
    row = _BY_TAG.get(payload[0]) if payload else None
    if row is not None:
        return _unpack(row, payload)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(f"frame is not a JSON object: {type(message).__name__}")
    return message


class FrameConnection(asyncio.Protocol):
    """One framed duplex connection, with optional fault injection.

    Inbound, ``data_received`` appends to one buffer and cuts every
    complete frame out of it in one pass.  Frames go to the ``on_frame``
    callback once :meth:`deliver` has installed one (a started
    :class:`~repro.net.channel.Channel`), and before that to a queue
    behind :meth:`recv` (handshakes, the server's per-connection handler).

    Outbound, ``send`` is fire-and-forget: a frame selected for delay by
    the injector is written later by a timer (frames may therefore
    reorder, as on a real network); a dropped frame is simply never
    written.  Each frame is handed to the transport whole, so concurrent
    senders never interleave bytes mid-frame, and ``send`` suspends only
    while the transport has paused writing; to a peer that is gone it
    is a no-op, never an error (the receive side reports the loss).

    ``handler``, on an accepted connection (:func:`listen`), is started
    as the task ``handler(conn)`` once the transport is up; the task is
    kept in :attr:`handler_task` for whoever has to wait for it.
    """

    def __init__(
        self,
        handler: Optional[Callable[["FrameConnection"], Awaitable[None]]] = None,
    ) -> None:
        #: Set by the owner (a client: once the handshake is through).
        self.faults: Optional["FaultInjector"] = None  # noqa: F821
        self.transport: Optional[asyncio.Transport] = None
        self.handler_task: Optional[asyncio.Task] = None
        self.sent = 0
        self.received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._start_handler = handler
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._buffer = bytearray()
        self._inbox: Deque[Dict[str, Any]] = deque()
        self._on_frame: Optional[Callable[[Dict[str, Any]], None]] = None
        self._on_end: Optional[Callable[[Optional[Exception]], None]] = None
        self._recv_waiter: Optional[asyncio.Future] = None
        self._ended = False  # EOF, a framing error, or the connection lost
        self._error: Optional[Exception] = None
        self._paused = False
        self._send_waiters: Deque[asyncio.Future] = deque()
        self._delayed: Set[asyncio.TimerHandle] = set()
        self._closed: Optional[asyncio.Future] = None

    # -- asyncio.Protocol -------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        if self._start_handler is not None:
            self.handler_task = self._loop.create_task(self._start_handler(self))

    def data_received(self, data: bytes) -> None:
        if self._ended:
            return  # after a framing error the stream has no boundaries left
        buffer = self._buffer
        buffer += data
        end = len(buffer)
        start = 0
        deliver = self._on_frame or self._inbox.append
        faults = self.faults
        try:
            while end - start >= 4:
                (length,) = _LENGTH.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                    )
                stop = start + 4 + length
                if stop > end:
                    break
                frame = decode_frame(buffer[start + 4:stop])
                start = stop
                self.received += 1
                self.bytes_received += 4 + length
                if faults is not None and faults.drops_inbound(
                    str(frame.get("kind", ""))
                ):
                    continue  # asymmetric partition: arrived, never delivered
                deliver(frame)
        except FrameError as exc:
            buffer.clear()
            self._end(exc)
            return
        del buffer[:start]
        if self._inbox:
            self._wake_recv()

    def eof_received(self) -> bool:
        if self._buffer:
            where = "mid-header" if len(self._buffer) < 4 else "mid-frame"
            self._end(FrameError(f"connection closed {where}"))
        else:
            self._end(None)
        return True  # the write side stays open: queued requests are still owed replies

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end(exc)
        self.resume_writing()
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        for waiter in self._send_waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- inbound ----------------------------------------------------------------

    def _end(self, error: Optional[Exception]) -> None:
        if self._ended:
            return
        self._ended = True
        self._error = error
        if self._on_end is not None:
            self._on_end(error)
        self._wake_recv()

    def _wake_recv(self) -> None:
        waiter = self._recv_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def deliver(
        self,
        on_frame: Callable[[Dict[str, Any]], None],
        on_end: Callable[[Optional[Exception]], None],
    ) -> None:
        """From now on call ``on_frame(frame)`` from ``data_received`` for
        every inbound frame instead of queueing it for :meth:`recv`, and
        ``on_end(error)`` once when the stream ends: ``None`` on a clean
        EOF or close, else the :class:`FrameError` or transport error."""
        self._on_frame, self._on_end = on_frame, on_end
        while self._inbox:
            on_frame(self._inbox.popleft())
        if self._ended:
            on_end(self._error)

    async def recv(self) -> Optional[Dict[str, Any]]:
        """The next queued frame; ``None`` on clean EOF at a frame
        boundary, :class:`FrameError` on EOF inside a frame."""
        inbox = self._inbox
        while not inbox:
            if self._ended:
                if self._error is not None:
                    raise self._error
                return None
            self._recv_waiter = self._loop.create_future()
            try:
                await self._recv_waiter
            finally:
                self._recv_waiter = None
        return inbox.popleft()

    def take_queued(self, stop_kinds: Container[str]) -> List[Dict[str, Any]]:
        """Without waiting: the frames already cut out of the stream and
        queued for :meth:`recv`, up to the first whose kind is in
        ``stop_kinds`` (which stays queued) — what a peer pipelined
        behind the frame its handler is serving."""
        inbox, taken = self._inbox, []
        while inbox and str(inbox[0].get("kind")) not in stop_kinds:
            taken.append(inbox.popleft())
        return taken

    # -- outbound ---------------------------------------------------------------

    async def send(self, message: Dict[str, Any]) -> None:
        data = encode_frame(message)
        if self.faults is None:
            self._write(data)
        else:
            for delay in self.faults.plan(message.get("kind", "")):
                if delay <= 0.0:
                    self._write(data)
                else:
                    self._write_later(delay, data)
        if self._paused:
            waiter = self._loop.create_future()
            self._send_waiters.append(waiter)
            try:
                await waiter
            finally:
                self._send_waiters.remove(waiter)

    def _write(self, data: bytes) -> None:
        if self.transport.is_closing():
            return
        self.sent += 1
        self.bytes_sent += len(data)
        self.transport.write(data)

    def _write_later(self, delay: float, data: bytes) -> None:
        def fire() -> None:
            self._delayed.discard(handle)
            self._write(data)

        handle = self._loop.call_later(delay, fire)
        self._delayed.add(handle)

    async def close(self) -> None:
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        self.transport.close()
        await asyncio.shield(self._closed)


async def dial(host: str, port: int) -> FrameConnection:
    """Connect to ``host:port``."""
    _, conn = await asyncio.get_running_loop().create_connection(
        FrameConnection, host, port
    )
    return conn


async def listen(
    handler: Callable[[FrameConnection], Awaitable[None]], host: str, port: int
) -> asyncio.AbstractServer:
    """Accept connections on ``host:port``, each served by the task
    ``handler(conn)`` (kept in ``conn.handler_task``)."""
    return await asyncio.get_running_loop().create_server(
        lambda: FrameConnection(handler), host, port
    )
