"""Unit tests for the length-prefixed JSON frame codec and for the one
transport that carries it, :class:`repro.net.framing.FrameConnection`."""

import ast
import asyncio
import json
import pathlib
import struct

import pytest

import repro
from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameConnection,
    FrameError,
    decode_frame,
    dial,
    encode_frame,
    listen,
)


class NullTransport:
    """As much of a transport as a parser under test touches."""

    def is_closing(self):
        return False


def read_all(*chunks: bytes):
    """Feed the chunks to a FrameConnection's buffer parser, then EOF,
    and collect every frame ``recv()`` hands out."""

    async def _drain():
        conn = FrameConnection()
        conn.connection_made(NullTransport())
        for chunk in chunks:
            conn.data_received(chunk)
        conn.eof_received()
        frames = []
        while True:
            frame = await conn.recv()
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(_drain())


class TestCodec:
    def test_roundtrip(self):
        message = {"kind": "write", "obj": "x", "value": "s0.1", "req": 3}
        assert decode_frame(encode_frame(message)[4:]) == message

    def test_length_prefix_is_big_endian_payload_length(self):
        data = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", data[:4])
        assert length == len(data) - 4

    def test_unicode_values_survive(self):
        message = {"kind": "write", "value": "héllo ⏱"}
        assert decode_frame(encode_frame(message)[4:]) == message

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"[1, 2]")

    def test_binary_garbage_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xfe\x00")

    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_bytes_are_those_of_compact_json_dumps(self):
        message = {"kind": "validate", "obj": "k7", "alpha": 1.5, "req": 9,
                   "value": "héllo ⏱", "nested": {"a": [1, None, True]}}
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert encode_frame(message) == struct.pack(">I", len(payload)) + payload


class TestStreamReading:
    def test_reads_consecutive_frames(self):
        frames = [{"kind": "fetch", "req": i} for i in range(3)]
        assert read_all(b"".join(encode_frame(f) for f in frames)) == frames

    def test_split_delivery_reassembles(self):
        data = encode_frame({"kind": "sync", "t0": 1.25})
        # Byte-at-a-time delivery: framing must reassemble exactly.
        assert read_all(*[data[i:i + 1] for i in range(len(data))]) == [
            {"kind": "sync", "t0": 1.25}
        ]

    def test_clean_eof_returns_none(self):
        assert read_all(b"") == []

    def test_eof_mid_header_raises(self):
        with pytest.raises(FrameError, match="mid-header"):
            read_all(b"\x00\x00")

    def test_eof_mid_payload_raises(self):
        data = encode_frame({"kind": "fetch"})
        with pytest.raises(FrameError, match="mid-frame"):
            read_all(data[:-2])

    def test_oversized_announcement_raises_before_buffering(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            read_all(header)

    def test_frames_before_a_bad_one_are_still_delivered(self):
        async def _scenario():
            conn = FrameConnection()
            conn.connection_made(NullTransport())
            conn.data_received(
                encode_frame({"kind": "fetch", "req": 0})
                + struct.pack(">I", MAX_FRAME_BYTES + 1) + b"never buffered"
            )
            assert await conn.recv() == {"kind": "fetch", "req": 0}
            with pytest.raises(FrameError, match="exceeds"):
                await conn.recv()
            return len(conn._buffer)

        assert asyncio.run(_scenario()) == 0

    def test_split_at_every_byte_offset_reassembles(self):
        frames = [{"kind": "write", "obj": "x", "value": "é" * i, "req": i}
                  for i in range(3)]
        data = b"".join(encode_frame(f) for f in frames)
        for cut in range(len(data) + 1):
            assert read_all(data[:cut], data[cut:]) == frames, cut

    def test_many_frames_in_one_chunk_with_a_partial_tail(self):
        frames = [{"kind": "validate", "obj": f"k{i}", "req": i}
                  for i in range(200)]
        data = b"".join(encode_frame(f) for f in frames)
        assert read_all(data[:-3], data[-3:]) == frames


# ``{"blob":""}`` is 11 bytes of JSON scaffolding around the blob, so a
# blob of MAX_FRAME_BYTES - 11 characters fills a frame to the byte.
_SCAFFOLDING = len('{"blob":""}')


class TestFrameLimits:
    """The MAX_FRAME_BYTES boundary, exactly."""

    def test_exactly_max_frame_roundtrips(self):
        message = {"blob": "x" * (MAX_FRAME_BYTES - _SCAFFOLDING)}
        data = encode_frame(message)
        (length,) = struct.unpack(">I", data[:4])
        assert length == MAX_FRAME_BYTES
        assert read_all(data) == [message]

    def test_one_byte_over_max_rejected_on_encode(self):
        message = {"blob": "x" * (MAX_FRAME_BYTES - _SCAFFOLDING + 1)}
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(message)

    @pytest.mark.net
    def test_oversized_announcement_closes_connection_without_wedging_peer(self):
        """A client announcing an impossible frame length is disconnected;
        the server survives and keeps serving other clients."""
        from repro.net.client import NetCacheClient
        from repro.net.server import NetObjectServer

        async def _scenario():
            server = await NetObjectServer("127.0.0.1", 0,
                                           propagation="none").start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
                await writer.drain()
                # The server must close *this* connection (EOF), not hang
                # trying to buffer a gigabyte that never comes.
                eof = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                await writer.wait_closed()
                # ... and a well-behaved client still gets service.
                async with NetCacheClient(0, "127.0.0.1", server.port) as client:
                    await client.write("x", "v1")
                    assert await client.read("x") == "v1"
            finally:
                await server.close()
            return eof

        eof = asyncio.run(_scenario())
        assert eof == b"" or eof.startswith(b"\x00")  # EOF (maybe after an error frame)


@pytest.mark.net
class TestConnection:
    """FrameConnection over real loopback sockets."""

    def test_each_side_receives_exactly_the_bytes_the_other_sent(self):
        from repro.net.client import NetCacheClient
        from repro.net.server import NetObjectServer

        async def _scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, delta=0.0
                ) as client:
                    await client.write("x", "héllo ⏱")  # not one byte per character
                    await client.write_many([("a", 1), ("b", 2.5), ("c", None)])
                    assert await client.read("x") == "héllo ⏱"
                    await client.validate_many(["a", "b", "never written"])
                    conn = client.conn
                    ours = (conn.sent, conn.bytes_sent,
                            conn.received, conn.bytes_received)
                    return ours, server.transport_totals()
            finally:
                await server.close()

        (sent, bytes_sent, received, bytes_received), totals = asyncio.run(_scenario())
        assert totals == {
            "frames": {"sent": received, "received": sent},
            "bytes": {"sent": bytes_received, "received": bytes_sent},
        }
        assert sent == received > 4 and bytes_sent != bytes_received

    def test_send_parks_while_the_transport_is_paused_and_no_longer(self):
        """A peer that stops reading: ``send`` returns at once until the
        transport calls ``pause_writing``, parks there with no more
        buffered than the high-water mark plus the frame that crossed
        it, and is released by ``resume_writing``; nothing is lost."""
        async def _scenario():
            released = asyncio.Event()
            peers, got = [], []

            async def stalled_peer(conn):
                peers.append(conn)
                conn.transport.pause_reading()
                await released.wait()
                conn.transport.resume_reading()
                while True:
                    frame = await conn.recv()
                    if frame is None:
                        return await conn.close()
                    got.append(frame["n"])

            listener = await listen(stalled_peer, "127.0.0.1", 0)
            conn = await dial("127.0.0.1", listener.sockets[0].getsockname()[1])
            high = 32 * 1024
            conn.transport.set_write_buffer_limits(high=high)
            blob = "x" * 16384
            for n in range(4000):
                last = asyncio.ensure_future(conn.send({"n": n, "blob": blob}))
                done, _ = await asyncio.wait([last], timeout=0.25)
                if not done:
                    break
            else:
                pytest.fail("send never parked against a peer that reads nothing")
            buffered = conn.transport.get_write_buffer_size()
            released.set()
            await asyncio.wait_for(last, 5.0)
            await conn.send({"n": n + 1, "blob": ""})  # and returns at once again
            await conn.close()
            await asyncio.wait_for(peers[0].handler_task, 5.0)
            listener.close()
            await listener.wait_closed()
            return n, got, buffered, high + len(encode_frame({"n": n, "blob": blob}))

        n, got, buffered, bound = asyncio.run(_scenario())
        assert 0 < buffered <= bound
        assert got == list(range(n + 2))


class TestOneTransport:
    """Replace, not fork: the stream API is gone from the wire path, so
    there is no second transport for a fix to miss."""

    BANNED = {"StreamReader", "StreamWriter", "open_connection", "start_server"}

    def test_nothing_under_net_or_cluster_names_the_stream_api(self):
        root = pathlib.Path(repro.__file__).parent
        named = []
        for package in ("net", "cluster"):
            for path in sorted((root / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    name = getattr(node, "attr", None) or getattr(node, "id", None)
                    if isinstance(node, ast.alias):
                        name = node.name.rpartition(".")[2]
                    if name in self.BANNED:
                        named.append(f"{path.relative_to(root)}:{node.lineno}")
        assert named == []
