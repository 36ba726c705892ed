"""Unit tests for the frame codec — length-prefixed JSON, packed for the
four hot kinds — and for the one transport that carries it,
:class:`repro.net.framing.FrameConnection`."""

import ast
import asyncio
import json
import math
import pathlib
import random
import re
import struct
import subprocess
import sys

import pytest

import repro
from repro.net.framing import (
    MAX_FRAME_BYTES,
    PACKED_FLAGS,
    PACKED_LAYOUTS,
    FrameConnection,
    FrameError,
    decode_frame,
    dial,
    encode_frame,
    listen,
)

ROOT = pathlib.Path(repro.__file__).parents[2]


class NullTransport:
    """As much of a transport as a parser under test touches."""

    def is_closing(self):
        return False


def frame_of(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def same(a, b) -> bool:
    """Equal, value *types* included, with NaN equal to itself."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and (not isinstance(a, float)
                       or math.copysign(1, a) == math.copysign(1, b))


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
        for message in (
            {"kind": "hello", "protocol": 2, "client_id": 7, "subscribe": False,
             "note": "héllo ⏱", "nested": {"a": [1, None, True]}},
            {"kind": "sync", "t0": 1.5, "req": 9},
            # A hot kind that is not exactly its layout stays JSON too.
            {"kind": "validate", "obj": "k7", "alpha": 1.5, "req": 9, "value": "x"},
        ):
            payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
            assert encode_frame(message) == frame_of(payload)


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
                    for obj, value in [("a", 1), ("b", 2.5), ("c", None)]:
                        await client.write(obj, value)
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


#: One literal per packed kind and flag combination: the layout cannot
#: drift silently.  Keys in the order ``decode_frame`` builds them, so
#: ``json.dumps`` of a message is its line of ``python -m repro.net``'s
#: output (CI pipes these bytes through it).
GOLDEN = [
    ({"kind": "validate", "req": 9, "alpha": 1.5, "obj": "k0007"},
     "01 00 00000009 3ff8000000000000 05 6b30303037"),
    ({"kind": "validate", "req": 9, "alpha": 1.5, "obj": "k0007", "epoch": 3},
     "01 01 00000009 3ff8000000000000 05 6b30303037 00000003"),
    ({"kind": "still-valid", "req": 9, "omega": 2.25, "obj": "k0007"},
     "02 00 00000009 4002000000000000 05 6b30303037"),
    ({"kind": "still-valid", "req": 9, "omega": 2.25, "obj": "k0007", "epoch": 3},
     "02 01 00000009 4002000000000000 05 6b30303037 00000003"),
    ({"kind": "write", "req": 10, "obj": "k0007", "value": "s1.4"},
     "03 00 0000000a 05 6b30303037 73312e34"),
    ({"kind": "write", "req": 10, "obj": "k0007", "epoch": 3, "value": "s1.4"},
     "03 01 0000000a 05 6b30303037 00000003 73312e34"),
    ({"kind": "write", "req": 11, "obj": "é", "value": None},
     "03 04 0000000b 02 c3a9 6e756c6c"),
    ({"kind": "write", "req": 11, "obj": "k0007", "epoch": 0, "value": -2.5},
     "03 05 0000000b 05 6b30303037 00000000 2d322e35"),
    ({"kind": "write-ack", "req": 10, "alpha": 2.5, "obj": "k0007",
      "installed": True},
     "04 02 0000000a 4004000000000000 05 6b30303037"),
    ({"kind": "write-ack", "req": 10, "alpha": 2.5, "obj": "k0007",
      "installed": False},
     "04 00 0000000a 4004000000000000 05 6b30303037"),
    ({"kind": "write-ack", "req": 10, "alpha": 2.5, "obj": "k0007", "epoch": 3,
      "installed": True},
     "04 03 0000000a 4004000000000000 05 6b30303037 00000003"),
    ({"kind": "write-ack", "req": 10, "alpha": 2.5, "obj": "k0007", "epoch": 3,
      "installed": False},
     "04 01 0000000a 4004000000000000 05 6b30303037 00000003"),
]
GOLDEN_PAYLOADS = [bytes.fromhex(text) for _, text in GOLDEN]
_HELLO = {"kind": "hello", "protocol": 4, "client_id": 7}


def golden_capture() -> bytes:
    """The golden frames as one captured stream, behind a JSON one."""
    return encode_frame(_HELLO) + b"".join(map(frame_of, GOLDEN_PAYLOADS))


def golden_dump() -> str:
    """What ``python -m repro.net`` prints for that stream."""
    return "".join(
        json.dumps(message, separators=(",", ":")) + "\n"
        for message in [_HELLO] + [message for message, _ in GOLDEN]
    )


class TestPackedLayout:
    @pytest.mark.parametrize(
        "message, payload", zip((m for m, _ in GOLDEN), GOLDEN_PAYLOADS),
        ids=[f"{m['kind']}-{text[3:5]}" for m, text in GOLDEN],
    )
    def test_golden_bytes_both_ways(self, message, payload):
        assert encode_frame(message) == frame_of(payload)
        decoded = decode_frame(payload)
        assert same(decoded, message) and list(decoded) == list(message)
        assert same(decode_frame(bytearray(payload)), message)  # data_received's slices

    def test_a_validate_round_trip_is_48_bytes_not_152(self):
        ask = {"kind": "validate", "obj": "k0007", "alpha": 1234567.890123456,
               "req": 54321}
        answer = {"kind": "still-valid", "obj": "k0007", "omega": 1234567.89012379,
                  "req": 54321}
        assert [len(encode_frame(m)) for m in (ask, answer)] == [24, 24]
        assert [len(json.dumps(m, separators=(",", ":"))) + 4
                for m in (ask, answer)] == [75, 77]

    def test_every_layout_is_golden_and_every_tag_is_below_any_json(self):
        assert {(payload[0], m["kind"]) for (m, _), payload
                in zip(GOLDEN, GOLDEN_PAYLOADS)} == {
            (tag, kind) for tag, (kind, _, _) in PACKED_LAYOUTS.items()
        }
        assert all(0 < tag < 0x09 for tag in PACKED_LAYOUTS)
        for text in ("{}", " {}", "\t{}", "\n{}", "\r{}"):
            assert decode_frame(text.encode()) == {}

    def test_the_documented_table_is_the_one_the_codec_uses(self):
        text = (ROOT / "docs" / "NET_PROTOCOL.md").read_text(encoding="utf-8")
        documented = {}
        for tag, *cells in re.findall(
            r"^\| `0x(\w\w)` \|(.*)\|(.*)\|(.*)\|$", text, re.M
        ):
            (kind,), fields, flags = (
                tuple(re.findall(r"`([^`?]+)\??`", cell)) for cell in cells
            )
            documented[int(tag, 16)] = (kind, fields, flags)
        assert documented == PACKED_LAYOUTS
        for name, bit in PACKED_FLAGS.items():  # "flag `epoch` (`0x01`)"
            assert re.search(rf"flag\s+`{name}`\s+\(`{bit:#04x}`\)", text), name


def random_text(rng, limit):
    alphabet = "abk0123456789.:-_ é⏱\U0001f552\x00\"\\{"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(limit)))


def random_time(rng):
    return rng.choice([
        rng.uniform(0, 1e6), rng.uniform(-1e3, 1e3), float(rng.randrange(100)),
        0.0, -0.0, 5e-324, 1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
    ])


def random_u32(rng):
    return rng.choice([0, 1, 2 ** 32 - 1, rng.randrange(2 ** 32)])


def random_hot_frame(rng):
    """A message that is exactly one of the packed layouts."""
    kind, fields, flags = rng.choice(list(PACKED_LAYOUTS.values()))
    message = {"kind": kind}
    for field in fields:
        if field == "req":
            message[field] = random_u32(rng)
        elif field in ("alpha", "omega"):
            message[field] = random_time(rng)
        elif field == "obj":
            message[field] = rng.choice(["", "k0007", "é" * 127, random_text(rng, 60)])
        elif field == "epoch" and rng.random() < 0.5:
            message[field] = random_u32(rng)
        elif field == "value":
            message[field] = rng.choice([
                "", "s1.4", random_text(rng, 40), None, True, False, 0, -7,
                10 ** 30, 2.5, random_time(rng),
            ])
    if "installed" in flags:
        message["installed"] = rng.random() < 0.5
    items = list(message.items())
    rng.shuffle(items)  # senders build their dicts in any order
    return dict(items)


#: Hot kinds that are *not* exactly their layout: each stays JSON.
FALL_BACK = {
    "int alpha": {"kind": "validate", "obj": "k", "alpha": 0, "req": 1},
    "null alpha": {"kind": "validate", "obj": "k", "alpha": None, "req": 1},
    "no req": {"kind": "validate", "obj": "k", "alpha": 1.5},
    "null req": {"kind": "still-valid", "req": None, "obj": "k", "omega": 1.5},
    "bool req": {"kind": "still-valid", "req": True, "obj": "k", "omega": 1.5},
    "negative req": {"kind": "still-valid", "req": -1, "obj": "k", "omega": 1.5},
    "req of 2**32": {"kind": "still-valid", "req": 2 ** 32, "obj": "k", "omega": 1.5},
    "epoch of 2**32": {"kind": "still-valid", "req": 1, "obj": "k", "omega": 1.5,
                       "epoch": 2 ** 32},
    "float epoch": {"kind": "still-valid", "req": 1, "obj": "k", "omega": 1.5,
                    "epoch": 3.0},
    "obj of 256 bytes": {"kind": "validate", "obj": "é" * 128, "alpha": 1.5, "req": 1},
    "int obj": {"kind": "validate", "obj": 7, "alpha": 1.5, "req": 1},
    "lone surrogate": {"kind": "write", "obj": "k", "value": "\ud800", "req": 1},
    "an extra key": {"kind": "write-ack", "req": 1, "obj": "k", "alpha": 1.5,
                     "installed": True, "true_time": 2.5},
    "a key swapped": {"kind": "still-valid", "req": 1, "obj": "k", "alpha": 1.5},
    "int installed": {"kind": "write-ack", "req": 1, "obj": "k", "alpha": 1.5,
                      "installed": 1},
    "no installed": {"kind": "write-ack", "req": 1, "obj": "k", "alpha": 1.5},
    "list value": {"kind": "write", "obj": "k", "value": [1, 2], "req": 1},
    "dict value": {"kind": "write", "obj": "k", "value": {"a": 1}, "req": 1},
    "causal write": {"kind": "write", "version": {"obj": "k"}, "req": 1},
}


class TestCodecProperties:
    def test_2000_random_hot_frames_round_trip_packed_with_their_types(self):
        rng = random.Random(24)
        for _ in range(2000):
            message = random_hot_frame(rng)
            data = encode_frame(message)
            assert data[4] in PACKED_LAYOUTS, message
            assert struct.unpack(">I", data[:4])[0] == len(data) - 4
            assert same(decode_frame(data[4:]), message), message

    @pytest.mark.parametrize("message", FALL_BACK.values(), ids=FALL_BACK.keys())
    def test_what_does_not_fit_a_layout_travels_as_json_unchanged(self, message):
        data = encode_frame(message)
        assert data[4:] == json.dumps(message, separators=(",", ":")).encode()
        assert same(decode_frame(data[4:]), message)

    def test_non_ascii_empty_and_non_finite_fields(self):
        for message in (
            {"kind": "write", "obj": "ключ⏱", "value": "héllo ⏱ \U0001f552", "req": 1},
            {"kind": "write", "obj": "", "value": "", "req": 0},
            {"kind": "validate", "obj": "k", "alpha": float("nan"), "req": 1},
            {"kind": "still-valid", "obj": "k", "omega": float("inf"), "req": 1},
            {"kind": "write-ack", "obj": "k", "alpha": float("-inf"), "req": 1,
             "installed": False},
            {"kind": "write", "obj": "k", "value": float("nan"), "req": 1},
        ):
            data = encode_frame(message)
            assert data[4] in PACKED_LAYOUTS
            assert same(decode_frame(data[4:]), message)

    def test_a_packed_write_obeys_max_frame_bytes_to_the_byte(self):
        empty = {"kind": "write", "obj": "k", "value": "", "req": 1}
        room = MAX_FRAME_BYTES - (len(encode_frame(empty)) - 4)
        full = {**empty, "value": "x" * room}
        data = encode_frame(full)
        assert data[4] == 0x03 and len(data) - 4 == MAX_FRAME_BYTES
        assert read_all(data) == [full]
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({**empty, "value": "x" * (room + 1)})

    @pytest.mark.parametrize("payload", GOLDEN_PAYLOADS, ids=[t for _, t in GOLDEN])
    def test_a_cut_or_corrupted_payload_is_a_dict_or_a_frame_error(self, payload):
        damaged = [payload[:cut] for cut in range(len(payload))] + [payload + b"\x00"]
        for at, good in enumerate(payload):
            damaged += [
                payload[:at] + bytes([byte]) + payload[at + 1:]
                for byte in {good ^ 0x01, good ^ 0x80, 0x00, 0xFF, 0x7B} - {good}
            ]
        outcomes = set()
        for bad in damaged:
            try:
                outcomes.add(type(decode_frame(bad)))
            except FrameError:
                outcomes.add(FrameError)
        assert outcomes == {dict, FrameError}
        # Cut short is never a frame — except inside a write's value,
        # which is whatever the length prefix says is left.
        value = 4 if payload[0] == 0x03 else 0  # "s1.4", "null", "-2.5"
        for cut in range(len(payload) - value):
            with pytest.raises(FrameError):
                decode_frame(payload[:cut])

    @pytest.mark.parametrize("text, why", [
        ("00", "undecodable frame"),  # no such tag, and no JSON either
        ("05 00 0000000c", "undecodable frame"),  # busy's, up to protocol 2
        ("05 01 0000000c 00000003", "undecodable frame"),
        ("05 02 0000000c", "undecodable frame"),
        ("06 00 00000001", "undecodable frame"),
        ("08", "undecodable frame"),
        ("02 02 0000000c 4002000000000000 01 6b", "flags"),  # installed, on a still-valid
        ("01 08 00000009 3ff8000000000000 00", "flags"),  # a bit nobody has
        ("02 00 0000000c 4002000000000000 01 6b 00", "trail"),
        ("02 01 0000000c 4002000000000000 01 6b 0000", "undecodable"),  # half an epoch
        ("01 00 00000009 3ff8000000000000 05 6b30", "ends inside obj"),
        ("01 00 00000009 3ff8000000000000 02 c328", "undecodable"),  # obj not UTF-8
        ("03 00 0000000a 01 6b ff", "undecodable"),  # value not UTF-8
        ("03 04 0000000a 01 6b 7b", "undecodable"),  # value not JSON
        ("03 04 0000000a 01 6b", "undecodable"),  # no JSON text at all
    ])
    def test_malformed_packed_payloads_are_frame_errors(self, text, why):
        with pytest.raises(FrameError, match=why):
            decode_frame(bytes.fromhex(text))


class TestMixedStream:
    """Both forms on one connection, through the real buffer parser."""

    FRAMES = [
        {"kind": "hello", "protocol": 4, "client_id": 7, "subscribe": False},
        {"kind": "validate", "obj": "k0007", "alpha": 1.5, "req": 0},
        {"kind": "fetch", "obj": "ключ", "req": 1},
        {"kind": "write", "obj": "k0007", "value": "é⏱", "req": 2},
        {"kind": "write", "obj": "k0007", "value": [1, 2], "req": 3},  # stays JSON
        {"kind": "still-valid", "req": 0, "omega": 2.5, "obj": "k0007", "epoch": 2},
        {"kind": "bye"},
    ]

    def test_split_at_every_byte_offset_delivers_the_same_frames(self):
        data = b"".join(encode_frame(f) for f in self.FRAMES)
        forms = [data[4] for data in map(encode_frame, self.FRAMES)]
        assert forms == [0x7B, 0x01, 0x7B, 0x03, 0x7B, 0x02, 0x7B]
        assert read_all(data) == self.FRAMES  # one segment
        for cut in range(len(data) + 1):
            assert read_all(data[:cut], data[cut:]) == self.FRAMES, cut

    @pytest.mark.parametrize("corrupt", [
        frame_of(bytes.fromhex("01 00 00000009 3ff8000000000000 02 c328")),
        frame_of(bytes.fromhex("07 00 00000009")),
        frame_of(b'{"kind": "validate"'),  # as a corrupt JSON one does
    ], ids=["packed-bad-utf8", "packed-unknown-tag", "json"])
    def test_a_corrupt_frame_ends_the_connection_with_frame_error(self, corrupt):
        async def _scenario():
            conn = FrameConnection()
            conn.connection_made(NullTransport())
            good = encode_frame(self.FRAMES[1])
            conn.data_received(good + corrupt + good)
            assert await conn.recv() == self.FRAMES[1]
            with pytest.raises(FrameError):
                await conn.recv()
            conn.data_received(good)  # no boundaries left: ignored
            with pytest.raises(FrameError):
                await conn.recv()
            return conn.received, len(conn._buffer)

        assert asyncio.run(_scenario()) == (1, 0)

    @pytest.mark.net
    def test_a_server_drops_the_peer_that_sends_a_corrupt_packed_frame(self):
        from repro.net.server import NetObjectServer

        async def _scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                conn = await dial(server.host, server.port)
                await conn.send({"kind": "hello", "client_id": 7})
                assert (await conn.recv())["kind"] == "hello-ack"
                await conn.send({"kind": "write", "obj": "x", "value": "v", "req": 0})
                ack = await asyncio.wait_for(conn.recv(), 1.0)
                conn.transport.write(frame_of(bytes.fromhex("01 00 0000")))
                end = await asyncio.wait_for(conn.recv(), 1.0)
                await conn.close()
                return ack, end, server.engine.store["x"].value
            finally:
                await server.close()

        ack, end, stored = asyncio.run(_scenario())
        assert ack["kind"] == "write-ack" and ack["installed"] is True
        assert end is None and stored == "v"  # closed on us; the server lives


class TestDump:
    """``python -m repro.net``: a captured stream, one JSON line per frame
    whatever its form."""

    def run(self, stream: bytes):
        return subprocess.run(
            [sys.executable, "-m", "repro.net"],
            input=stream, capture_output=True, timeout=30,
            env={"PYTHONPATH": str(ROOT / "src")},
        )

    def test_the_golden_capture_prints_as_its_messages(self):
        done = self.run(golden_capture())
        # Nothing on stderr: no runpy warning, the module runs once.
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.decode("utf-8") == golden_dump()

    def test_a_bad_frame_is_exit_1_with_its_offset(self, capsys):
        from repro.net.__main__ import _dump  # what ``-m`` runs on stdin

        good = golden_capture()
        for tail, why in [
            (frame_of(b"\x07\x00"), "undecodable frame: Expecting value: line 1 "
                                    "column 1 (char 0)"),
            (b"\x00\x00", "stream ends mid-header"),
            (frame_of(GOLDEN_PAYLOADS[0])[:-1], "stream ends mid-frame"),
            (struct.pack(">I", MAX_FRAME_BYTES + 1), "announced frame of 1048577 bytes"),
        ]:
            assert _dump(good + tail) == 1
            printed = capsys.readouterr()
            assert printed.out == golden_dump()  # what came before it
            assert printed.err == f"offset {len(good)}: {why}\n"


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
