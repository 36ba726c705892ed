"""repro.net.channel: the asking end of the wire, once.

A scripted peer on a real loopback socket plays the answering end, so
each case says exactly which frames come back and when.  The last class
pins the layering: dial, hello, reply matching and the per-attempt wait
live in ``net/channel.py`` and nowhere else under ``src/``.
"""

import argparse
import asyncio
import contextlib
import pathlib
import socket

import pytest

import repro
from repro.cli.cluster import cmd_cluster_status
from repro.net.channel import Channel
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import HELLO_ACK, listen

from tests.test_net_local import callers_of, names_in

SRC = pathlib.Path(repro.__file__).parent


@contextlib.asynccontextmanager
async def peer(serve, hello_ack=HELLO_ACK):
    """A listener that answers ``hello`` with a ``hello_ack`` frame and
    then runs ``serve(conn, frame)`` for every frame; yields its port
    and a future holding how the first connection ended."""
    ended = asyncio.get_running_loop().create_future()

    async def handler(conn):
        try:
            await conn.recv()  # the hello
            await conn.send({"kind": hello_ack})
            while True:
                frame = await conn.recv()
                if frame is None or frame["kind"] == "bye":
                    break
                await serve(conn, frame)
            end = None
        except ConnectionError as exc:
            end = exc
        finally:
            await conn.close()
        if not ended.done():
            ended.set_result(end)

    listener = await listen(handler, "127.0.0.1", 0)
    try:
        yield listener.sockets[0].getsockname()[1], ended
    finally:
        listener.close()
        await listener.wait_closed()


async def echo(conn, frame):
    await conn.send({"kind": "echo", "req": frame["req"], "of": frame["n"]})


@contextlib.asynccontextmanager
async def opened(port, **options):
    channel = Channel(7, "127.0.0.1", port, **options)
    await channel.open(1.0)
    channel.start()
    try:
        yield channel
    finally:
        await channel.close()


@pytest.mark.net
class TestCall:
    def test_a_reply_resolves_its_own_call_only(self):
        held = []

        async def answer_in_reverse(conn, frame):
            held.append(frame)
            if len(held) == 3:
                for earlier in reversed(held):
                    await echo(conn, earlier)

        async def scenario():
            async with peer(answer_in_reverse) as (port, _), \
                    opened(port) as channel:
                replies = await asyncio.gather(*(
                    channel.call({"kind": "ask", "n": n}, 1.0) for n in range(3)
                ))
                return replies, channel.pending

        replies, pending = asyncio.run(scenario())
        assert [r["of"] for r in replies] == [0, 1, 2]
        assert len({r["req"] for r in replies}) == 3
        assert pending == {}

    def test_an_orphan_reply_after_a_timeout_resolves_nothing(self):
        async def late_once(conn, frame):
            if frame["n"] == 0:
                await asyncio.sleep(0.15)
            await echo(conn, frame)

        async def scenario():
            seen = []
            async with peer(late_once) as (port, _), \
                    opened(port, on_frame=seen.append) as channel:
                with pytest.raises(TimeoutError) as caught:
                    await channel.call({"kind": "ask", "n": 0}, 0.05)
                assert channel.pending == {}
                # The next call is in flight when the orphan lands.
                reply = await channel.call({"kind": "ask", "n": 1}, 1.0)
                return str(caught.value), seen, reply, channel.pending

        message, seen, reply, pending = asyncio.run(scenario())
        assert message == "no reply to ask #0 in 0.05s"
        assert [f["of"] for f in seen] == [0, 1]  # the orphan did arrive
        assert (reply["of"], reply["req"]) == (1, 1)
        assert pending == {}

    def test_a_pinned_id_is_reused_and_fresh_ids_skip_it(self):
        asked = []

        async def record(conn, frame):
            asked.append(frame["req"])
            await echo(conn, frame)

        async def scenario():
            async with peer(record) as (port, _), opened(port) as channel:
                first = await channel.call({"kind": "ask", "n": 0}, 1.0)
                pinned = channel.next_id()
                for _ in range(2):
                    await channel.call({"kind": "ask", "n": 1}, 1.0, req=pinned)
                last = await channel.call({"kind": "ask", "n": 2}, 1.0)
                return first["req"], pinned, last["req"]

        assert asyncio.run(scenario()) == (0, 1, 2)
        assert asked == [0, 1, 1, 2]

    def test_on_frame_sees_every_frame_and_a_reply_before_its_call_resumes(self):
        async def push_then_answer(conn, frame):
            await conn.send({"kind": "push", "obj": "x"})  # carries no req
            await echo(conn, frame)

        async def scenario():
            order = []
            async with peer(push_then_answer) as (port, _), opened(
                port, on_frame=lambda f: order.append(("frame", f["kind"]))
            ) as channel:
                reply = await channel.call({"kind": "ask", "n": 0}, 1.0)
                order.append(("resumed", reply["kind"]))
                return order, channel.pending

        order, pending = asyncio.run(scenario())
        # The push reached on_frame and resolved no call: the call got
        # its echo, and only after on_frame had seen that echo too.
        assert order == [("frame", "push"), ("frame", "echo"), ("resumed", "echo")]
        assert pending == {}


@pytest.mark.net
class TestLoss:
    def test_a_lost_connection_fails_pending_calls_and_later_ones_unsent(self):
        async def hang_up_on_the_second(conn, frame):
            if frame["n"] == 1:
                conn.transport.abort()

        async def scenario():
            async with peer(hang_up_on_the_second) as (port, _), \
                    opened(port) as channel:
                outcomes = await asyncio.gather(
                    *(channel.call({"kind": "ask", "n": n}, 2.0) for n in range(2)),
                    return_exceptions=True,
                )
                sent = channel.conn.sent
                with pytest.raises(ConnectionError, match="is down"):
                    await channel.call({"kind": "ask", "n": 2}, 2.0)
                return (outcomes, channel.connected, channel.pending,
                        channel.conn.sent - sent)

        outcomes, connected, pending, written = asyncio.run(scenario())
        assert [type(o) for o in outcomes] == [ConnectionError] * 2
        assert "lost" in str(outcomes[0])
        assert not connected and pending == {}
        assert written == 0


@pytest.mark.net
class TestOpen:
    def test_a_wrong_kind_hello_ack_leaves_no_socket_behind(self):
        async def scenario():
            async with peer(echo, hello_ack="error") as (port, ended):
                channel = Channel(7, "127.0.0.1", port)
                with pytest.raises(ConnectionError, match="bad handshake reply"):
                    await channel.open(1.0)
                assert not channel.connected and channel.conn is None
                return await asyncio.wait_for(ended, 1.0)

        end = asyncio.run(scenario())
        assert end is None or isinstance(end, ConnectionError)  # EOF or a reset

    def test_faults_are_consulted_after_start_and_never_before(self):
        faults = FaultInjector(FaultConfig())
        faults.partition("both")  # drops everything, both ways

        async def scenario():
            async with peer(echo) as (port, _):
                channel = Channel(7, "127.0.0.1", port, faults=faults)
                await channel.open(1.0)
                before = faults.stats.planned
                channel.start()
                try:
                    with pytest.raises(TimeoutError):
                        await channel.call({"kind": "ask", "n": 0}, 0.05)
                finally:
                    await channel.close()
                return before, faults.stats.planned

        before, after = asyncio.run(scenario())
        assert before == 0  # the hello went out over the cut
        assert after > 0

    def test_a_mute_member_is_unreachable_not_a_traceback(self, capsys):
        """``repro cluster status`` against a member that accepts and
        never answers: exit 1 and a reason.  ``asyncio.TimeoutError`` is
        no ``OSError`` on Python 3.10, so the channel raises the builtin."""
        with socket.socket() as mute:
            mute.bind(("127.0.0.1", 0))
            mute.listen(1)  # the kernel accepts; nobody ever reads
            target = "127.0.0.1:%d" % mute.getsockname()[1]
            code = cmd_cluster_status(
                argparse.Namespace(target=target, timeout=0.3)
            )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith(f"{target}: unreachable (")
        assert out.strip() != f"{target}: unreachable ()"
        assert f"no hello-ack from {target} in 0.3s" in out


class TestOneAskingEnd:
    """Replace, not fork: nobody but the channel dials, says hello,
    takes frames from ``data_received`` or keeps a reply table."""

    def test_only_the_channel_dials_and_takes_delivery(self):
        assert callers_of("dial") == {"net/channel.py"}
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if ".deliver(" in path.read_text(encoding="utf-8")
        ] == ["net/channel.py"]

    def test_hello_is_named_by_the_framing_the_server_and_the_channel(self):
        named = {
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "HELLO" in names_in(path)
        }
        assert named == {"net/framing.py", "net/server.py", "net/channel.py"}

    def test_no_request_waits_in_wait_for(self):
        # An ast check: the comment above SwimAgent.stop still names it.
        # The channel's own call bounds open(), at connect time.
        assert callers_of("wait_for") & {
            "cluster/swim.py", "net/client.py", "net/channel.py",
        } == {"net/channel.py"}
        assert callers_of("shield") & {"net/client.py", "net/channel.py"} == set()

    def test_the_second_copy_is_gone(self):
        sources = {
            str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
            for path in SRC.rglob("*.py")
        }
        assert [m for m, text in sources.items() if "class AgentLink" in text] == []
        assert [m for m, text in sources.items()
                if "Dict[int, asyncio.Future]" in text] == ["net/channel.py"]
        for gone in ("_recv_loop", "_handshake", "_abandon_connection",
                     "_on_connection_end", "_conn_lost", "fetch_cluster_view"):
            assert [m for m, text in sources.items() if gone in text] == [], gone
