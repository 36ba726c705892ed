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
``repro.cluster``: an ``asyncio.BufferedProtocol`` that has the socket
receive into one buffer per connection and cuts frames out of it where
they lie, with an optional
:class:`repro.net.faults.FaultInjector` that drops, delays, duplicates,
or partitions frames.  :func:`dial` opens one, :func:`listen` accepts
them.
"""

from __future__ import annotations

import asyncio
import functools
import json
import struct
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Set, Tuple

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
# piggyback gossip (a ClusterView wire payload) and are answered by a
# server task of their own — never deduped.
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


class FrameError(Exception):
    """A malformed frame: oversized, truncated, not a JSON object and
    not a packed layout either."""


def _compile(tag: int) -> Tuple[Callable, Callable]:
    """The encoder and the decoder of one :data:`PACKED_LAYOUTS` row,
    with the row's shape bound in.  ``encode(message)`` is the whole
    frame, length prefix included, or ``None`` unless the message is
    exactly the layout (``epoch`` optional) and every field fits.
    ``decode(payload, start, stop)`` parses the payload between the two
    offsets where it lies."""
    kind, fields, flags = PACKED_LAYOUTS[tag]
    time = next((f for f in fields if f in ("alpha", "omega")), None)
    # The fixed head: tag, flags, req, the time where the kind has one,
    # and the length of ``obj``; the encoder packs the prefix with it.
    shape = "BBI" + "d" * (time is not None) + "B"
    pack = struct.Struct(">I" + shape).pack
    head = struct.Struct(">" + shape)
    unpack_from, size = head.unpack_from, head.size
    allowed = sum(PACKED_FLAGS[flag] for flag in flags)
    installs = "installed" in flags
    json_value = "json-value" in flags
    # A message without ``epoch`` holds ``kind`` and the other fields,
    # plus ``installed``, which travels as a flag.
    keys = len(fields) + installs

    def encode(message: Dict[str, Any]) -> Optional[bytes]:
        try:
            req, obj = message["req"], message["obj"]
            if type(req) is not int or type(obj) is not str:
                return None
            flags, tail = 0, b""
            if len(message) != keys:
                epoch = message["epoch"]
                if len(message) != keys + 1 or type(epoch) is not int:
                    return None
                flags, tail = _EPOCH, _U32.pack(epoch)
            if installs:
                installed = message["installed"]
                if installed is True:
                    flags |= _INSTALLED
                elif installed is not False:
                    return None
            elif json_value:
                value = message["value"]
                if type(value) is str:
                    tail += value.encode()
                elif type(value) in _JSON_SCALARS:
                    flags |= _JSON_VALUE
                    tail += _encode_json(value).encode()
                else:
                    return None
            obj = obj.encode()
            length = size + len(obj) + len(tail)
            if time is None:
                return pack(length, tag, flags, req, len(obj)) + obj + tail
            t = message[time]
            if type(t) is not float:
                return None
            return pack(length, tag, flags, req, t, len(obj)) + obj + tail
        except (KeyError, ValueError, struct.error):
            return None  # a key missing, a lone surrogate, a number out of range

    def decode(payload: bytes, start: int, stop: int) -> Dict[str, Any]:
        # Every bound is ``stop``, not the buffer's end: the next frame's
        # bytes may follow.
        if stop - start < size:
            raise FrameError(f"undecodable packed {kind}: {stop - start} bytes")
        fixed = unpack_from(payload, start)
        flags = fixed[1]
        if flags & ~allowed:
            raise FrameError(f"flags {flags:#04x} on a packed {kind}")
        at = start + size
        end = at + fixed[-1]
        if end > stop:
            raise FrameError(f"packed {kind} ends inside obj")
        try:
            if time is None:
                message = {"kind": kind, "req": fixed[2],
                           "obj": payload[at:end].decode()}
            else:
                message = {"kind": kind, "req": fixed[2], time: fixed[3],
                           "obj": payload[at:end].decode()}
            if flags & _EPOCH:
                if end + 4 > stop:
                    raise FrameError(f"undecodable packed {kind}: half an epoch")
                (message["epoch"],) = _U32.unpack_from(payload, end)
                end += 4
            if installs:
                message["installed"] = (flags & _INSTALLED) != 0
            elif json_value:
                value = payload[end:stop].decode()
                message["value"] = json.loads(value) if flags & _JSON_VALUE else value
                end = stop
        except ValueError as exc:  # bad UTF-8 or JSON text
            raise FrameError(f"undecodable packed {kind}: {exc}") from None
        if end != stop:
            raise FrameError(f"{stop - end} bytes trail a packed {kind}")
        return message

    return encode, decode


_CODECS = {tag: _compile(tag) for tag in PACKED_LAYOUTS}
_ENCODERS = {PACKED_LAYOUTS[tag][0]: encode for tag, (encode, _) in _CODECS.items()}
_DECODERS = {tag: decode for tag, (_, decode) in _CODECS.items()}
_MAX_DATA = 4 + MAX_FRAME_BYTES  # the longest frame, prefix included

#: A connection's receive buffer, in bytes: what one socket read may
#: fill.  A frame longer than this grows the buffer to its own length
#: until it is consumed.
RECEIVE_BUFFER_BYTES = 1 << 16


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to ``length || payload`` bytes: packed if
    it is exactly one of :data:`PACKED_LAYOUTS`, JSON otherwise."""
    encode = _ENCODERS.get(message.get("kind"))
    data = None if encode is None else encode(message)
    if data is None:
        payload = _encode_json(message).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise FrameError(
                f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
        return _LENGTH.pack(len(payload)) + payload
    if len(data) > _MAX_DATA:
        raise FrameError(f"frame of {len(data) - 4} bytes exceeds {MAX_FRAME_BYTES}")
    return data


def decode_frame(
    payload: bytes, start: int = 0, stop: Optional[int] = None
) -> Dict[str, Any]:
    """Parse the frame payload ``payload[start:stop]`` where it lies (a
    receive buffer is never sliced) to the same dict whatever its form:
    packed if its first byte is a tag of :data:`PACKED_LAYOUTS`, else
    JSON whose top-level value must be an object — which no payload
    starting with an unassigned tag is."""
    if stop is None:
        stop = len(payload)
    decode = _DECODERS.get(payload[start]) if stop > start else None
    if decode is not None:
        return decode(payload, start, stop)
    try:
        message = json.loads(payload[start:stop].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(f"frame is not a JSON object: {type(message).__name__}")
    return message


class FrameConnection(asyncio.BufferedProtocol):
    """One framed duplex connection, with optional fault injection.

    Inbound, the socket receives into one buffer of
    :data:`RECEIVE_BUFFER_BYTES` (``get_buffer`` hands it the free tail),
    and ``buffer_updated`` decodes (:func:`decode_frame`) every complete
    frame in one pass, where it lies, then moves a partial frame to the
    front for the next read.  A frame longer than the buffer grows it to
    that frame's length, and the buffer shrinks back once the frame is
    consumed.  The frames of each read go together to the ``on_frames``
    callback once :meth:`deliver` has installed one (a started
    :class:`~repro.net.channel.Channel`, the server past the handshake),
    and before that to a queue behind :meth:`recv`.

    Outbound, ``write`` is fire-and-forget: a frame selected for delay by
    the injector is written later by a timer (frames may therefore
    reorder, as on a real network); a dropped frame is simply never
    written.  Each frame is handed to the transport whole, so concurrent
    senders never interleave bytes mid-frame, and ``send`` writes, then
    suspends while the transport has paused writing; to a peer that is
    gone either is a no-op, never an error (the receive side reports it).

    ``handler``, on an accepted connection (:func:`listen`), is started
    as the task ``handler(conn)`` once the transport is up; the task is
    kept in :attr:`handler_task` for whoever has to wait for it.  That
    end answers, so while its transport has paused writing it stops
    reading too: a peer that never reads is left with its own requests.
    The asking end reads on, or two such peers would wait for each other.
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
        self._buffer = bytearray(RECEIVE_BUFFER_BYTES)
        self._filled = 0  # bytes of a partial frame at the buffer's front
        self._free = memoryview(self._buffer)  # what the next read may fill
        # ``get_buffer(sizehint)`` is ``getattr(self, "_free", sizehint)``.
        # The transport asks for it before every socket read; made of C
        # callables, it adds no Python frame to a read (TestWirePath.CALLS
        # in tests/test_net_pipeline.py counts them).
        self.get_buffer = functools.partial(getattr, self, "_free")
        self._inbox: Deque[Dict[str, Any]] = deque()
        self._on_frames: Optional[Callable[[List[Dict[str, Any]]], None]] = None
        self._on_end: Optional[Callable[[Optional[Exception]], None]] = None
        self._recv_waiter: Optional[asyncio.Future] = None
        self._ended = False  # EOF, a framing error, or the connection lost
        self._error: Optional[Exception] = None
        self._paused = False
        self._send_waiters: Deque[asyncio.Future] = deque()
        self._delayed: Set[asyncio.TimerHandle] = set()
        self._closed: Optional[asyncio.Future] = None

    # -- asyncio.BufferedProtocol -----------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        if self._start_handler is not None:
            self.handler_task = self._loop.create_task(self._start_handler(self))

    def buffer_updated(self, nbytes: int) -> None:
        if self._ended:
            return  # after a framing error the stream has no boundaries left
        buffer = self._buffer
        end = self._filled + nbytes
        start = 0
        need = 0  # the length of the partial frame left, once its prefix is in
        frames: List[Dict[str, Any]] = []
        error = None
        try:
            while end - start >= 4:
                (length,) = _LENGTH.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                    )
                stop = start + 4 + length
                if stop > end:
                    need = stop - start
                    break
                frames.append(decode_frame(buffer, start + 4, stop))
                start = stop
        except FrameError as exc:
            error = exc
        self.received += len(frames)
        self.bytes_received += start
        if error is not None:
            start = end  # the rest has no boundaries: dropped
        rest = end - start
        size = need if need > RECEIVE_BUFFER_BYTES else RECEIVE_BUFFER_BYTES
        if size != len(buffer):
            self._buffer = bytearray(size)
            self._buffer[:rest] = buffer[start:end]
            self._free = memoryview(self._buffer)[rest:]
        else:
            if start and rest:
                buffer[:rest] = buffer[start:end]
            if rest != self._filled:
                self._free = memoryview(buffer)[rest:]
        self._filled = rest
        faults = self.faults
        if faults is not None:
            # Asymmetric partition: arrived, never delivered.
            frames = [frame for frame in frames
                      if not faults.drops_inbound(str(frame.get("kind", "")))]
        if frames:
            if self._on_frames is not None:
                self._on_frames(frames)
            else:
                self._inbox.extend(frames)
                self._wake_recv()
        if error is not None:
            self._end(error)

    def eof_received(self) -> bool:
        if self._filled:
            where = "mid-header" if self._filled < 4 else "mid-frame"
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
        if self._start_handler is not None:  # the answering end
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self._start_handler is not None:
            self.transport.resume_reading()  # a no-op once closing
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
        on_frames: Callable[[List[Dict[str, Any]]], None],
        on_end: Optional[Callable[[Optional[Exception]], None]] = None,
    ) -> None:
        """From now on hand the frames of each ``buffer_updated`` call to
        ``on_frames`` instead of :meth:`recv`, which then only waits for
        the end, and call ``on_end(error)`` once when the stream ends:
        ``None`` on a clean EOF or close, else the :class:`FrameError`
        or transport error."""
        self._on_frames, self._on_end = on_frames, on_end
        if self._inbox:
            on_frames(list(self._inbox))
            self._inbox.clear()
        if self._ended and on_end is not None:
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

    # -- outbound ---------------------------------------------------------------

    def write(self, message: Dict[str, Any]) -> None:
        """Hand ``message`` to the transport now (:class:`FrameError` if
        it is too large to frame)."""
        data = encode_frame(message)
        if self.faults is None:
            transport = self.transport  # _write, in place: the hot path
            if not transport.is_closing():
                self.sent += 1
                self.bytes_sent += len(data)
                transport.write(data)
        else:
            for delay in self.faults.plan(message.get("kind", "")):
                if delay <= 0.0:
                    self._write(data)
                else:
                    self._write_later(delay, data)

    async def send(self, message: Dict[str, Any]) -> None:
        """:meth:`write`, then wait while the transport has paused writing."""
        self.write(message)
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
