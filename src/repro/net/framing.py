"""Length-prefixed JSON frames over a byte stream.

The wire format of ``repro.net`` (see docs/NET_PROTOCOL.md): every
message is one *frame* —

    +----------------+----------------------------------+
    | 4 bytes        | N bytes                          |
    | N (big-endian) | UTF-8 JSON object                |
    +----------------+----------------------------------+

JSON keeps the protocol language-agnostic and debuggable (``nc`` plus a
hex dump is enough to follow a session); the length prefix makes message
boundaries explicit so a frame is either delivered whole or not at all.
Payload values are restricted to JSON scalars, which is all the lifetime
protocol needs (object names, values, timestamps).

:class:`FrameConnection` pairs an ``asyncio`` stream reader/writer with
the codec and an optional :class:`repro.net.faults.FaultInjector` that
drops, delays, duplicates, or partitions outbound frames.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional, Set

#: Hard cap on a frame's payload size; a peer announcing more is corrupt
#: (or malicious) and the connection is torn down rather than buffered.
MAX_FRAME_BYTES = 1 << 20

#: Wire protocol version carried in the HELLO exchange.
PROTOCOL_VERSION = 1

# Handshake and housekeeping kinds specific to the wire protocol; the
# data-plane kinds (fetch/validate/write/push/...) come from
# :mod:`repro.engine.messages`.
HELLO = "hello"
HELLO_ACK = "hello-ack"
SYNC = "sync"
SYNC_ACK = "sync-ack"
BYE = "bye"
ERROR = "error"
#: Server -> client backpressure: the request was shed *unexecuted*
#: because the server's ``inflight_limit`` was reached; the client backs
#: off and reissues under the same request id.
BUSY = "busy"

# Cluster control plane (repro.cluster; docs/CLUSTER.md).  Probe frames
# piggyback gossip (a ClusterView wire payload) and are served inline by
# the server like SYNC — never deduped, never queued behind data-plane
# backpressure.
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


class FrameError(Exception):
    """A malformed frame: oversized, truncated, or not a JSON object."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to ``length || JSON`` bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload; the top-level value must be an object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(f"frame is not a JSON object: {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-header") from None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame") from None
    return decode_frame(payload)


class FrameConnection:
    """One framed duplex connection, with optional outbound fault injection.

    ``send`` is fire-and-forget: a frame selected for delay by the
    injector is written later by a background task (frames may therefore
    reorder, as on a real network); a dropped frame is simply never
    written.  Each frame is buffered with a single ``write`` call, so
    concurrent senders never interleave bytes mid-frame.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        faults: Optional["FaultInjector"] = None,  # noqa: F821
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.faults = faults
        self.sent = 0
        self.received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._delayed: Set[asyncio.Task] = set()

    @property
    def peername(self) -> str:
        peer = self.writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "?"

    async def send(self, message: Dict[str, Any]) -> None:
        data = encode_frame(message)
        deliveries = (
            [0.0]
            if self.faults is None
            else self.faults.plan(message.get("kind", ""))
        )
        for delay in deliveries:
            if delay <= 0.0:
                self._write(data)
            else:
                task = asyncio.ensure_future(self._write_later(data, delay))
                self._delayed.add(task)
                task.add_done_callback(self._delayed.discard)
        if any(delay <= 0.0 for delay in deliveries):
            await self._drain()

    def _write(self, data: bytes) -> None:
        if self.writer.is_closing():
            return
        self.writer.write(data)
        self.sent += 1
        self.bytes_sent += len(data)

    async def _write_later(self, data: bytes, delay: float) -> None:
        await asyncio.sleep(delay)
        self._write(data)
        await self._drain()

    async def _drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # peer went away; the reader side will notice

    async def recv(self) -> Optional[Dict[str, Any]]:
        while True:
            frame = await read_frame(self.reader)
            if frame is None:
                return None
            self.received += 1
            # Approximate (re-encoded) payload size: the reader consumed
            # the original bytes already; close enough for byte gauges.
            self.bytes_received += _LENGTH.size + len(
                json.dumps(frame, separators=(",", ":"))
            )
            if self.faults is not None and self.faults.drops_inbound(
                str(frame.get("kind", ""))
            ):
                continue  # asymmetric partition: arrived, never delivered
            return frame

    async def close(self) -> None:
        for task in list(self._delayed):
            task.cancel()
        self._delayed.clear()
        if not self.writer.is_closing():
            self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass
