"""Each end of the wire, once.

The asking end is ``repro.net.channel``: a scripted peer on a real
loopback socket plays the answering end, so each case says exactly which
frames come back and when (``TestLadder`` and ``TestWindow`` in virtual
time, to the millisecond), and ``TestOneAskingEnd`` pins the layering —
dial, hello, reply matching, the retransmit ladder and the pipeline
window live in ``net/channel.py`` and nowhere else under ``src/``.

The answering end is ``NetObjectServer._answer``: ``TestAnswer`` plays
the asking end by hand over a bare connection, and ``TestOneAnsweringEnd``
pins that every request is counted, run and failed there, and its reply
stamped and sent by ``_release``; ``TestOneExecutionModel`` that a
data-plane request is run in place, from ``buffer_updated``.
"""

import argparse
import ast
import asyncio
import contextlib
import gc
import inspect
import pathlib
import socket

import pytest

import repro
from repro.cli import build_parser
from repro.cli.cluster import cmd_cluster_status
from repro.cluster import ClusterConfig, ClusterView, SwimAgent
from repro.net.channel import Channel
from repro.net.client import (
    MAX_RETRIES, REQUEST_TIMEOUT, NetCacheClient, RequestTimeout,
)
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import (
    HELLO_ACK, MAX_FRAME_BYTES, PROTOCOL_VERSION, FrameError, dial, listen,
)
from repro.load.scenario import TargetSpec
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.sim import vtime

from tests.test_net_local import callers_of, names_in

SRC = pathlib.Path(repro.__file__).parent


@contextlib.asynccontextmanager
async def peer(serve, hello_ack=HELLO_ACK, protocol=PROTOCOL_VERSION):
    """A listener that answers ``hello`` with a ``hello_ack`` frame and
    then runs ``serve(conn, frame)`` for every frame; yields its port
    and a future holding how the first connection ended."""
    ended = asyncio.get_running_loop().create_future()

    async def handler(conn):
        try:
            await conn.recv()  # the hello
            await conn.send({"kind": hello_ack, "protocol": protocol})
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
    channel.attach()
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

    def test_a_lost_connection_fails_every_started_request(self):
        """Sent or still waiting for the window, each started future
        fails with ``ConnectionError``; none is left behind."""

        async def hang_up(conn, frame):
            conn.transport.abort()

        async def scenario():
            async with peer(hang_up) as (port, _), opened(port, window=2) as channel:
                futures = [channel.start({"kind": "ask", "n": n}, 2.0)
                           for n in range(3)]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                with pytest.raises(ConnectionError, match="is down"):
                    channel.start({"kind": "ask", "n": 3}, 2.0)
                return outcomes, channel.pending, channel.in_flight

        outcomes, pending, in_flight = vtime.run(scenario())
        assert [type(o) for o in outcomes] == [ConnectionError] * 3
        assert all("lost" in str(o) for o in outcomes)
        assert pending == {} and in_flight == 0


class ArmedTimers:
    """Wraps ``loop.call_at`` (which ``call_later`` goes through) and
    records the most timers ever armed at once from then on."""

    def __init__(self, loop):
        self.handles, self.most = [], 0
        call_at = loop.call_at

        def recording(when, callback, *args, **kwargs):
            fired = []

            def run(*args):
                fired.append(True)
                callback(*args)

            handle = call_at(when, run, *args, **kwargs)
            self.handles.append((handle, fired))
            self.most = max(self.most, sum(
                not fired and not handle.cancelled() for handle, fired in self.handles
            ))
            return handle

        loop.call_at = recording


@pytest.mark.net
class TestLadder:
    """A request is re-sent under its own id, each rung ``backoff`` times
    longer than the last, from the channel's one timer."""

    def test_the_same_id_is_resent_after_each_rung_then_times_out(self):
        asked = []

        async def silent(conn, frame):
            asked.append((frame["req"], asyncio.get_running_loop().time()))

        async def scenario():
            loop = asyncio.get_running_loop()
            retries = []
            async with peer(silent) as (port, _), \
                    opened(port, on_retry=lambda: retries.append(1)) as channel:
                timers = ArmedTimers(loop)
                started = loop.time()
                with pytest.raises(TimeoutError) as caught:
                    await channel.call(
                        {"kind": "ask", "n": 0}, 0.1, retries=2, backoff=2.0
                    )
                ended = loop.time()
                # Three requests on ladders of their own, side by side.
                outcomes = await asyncio.gather(*(
                    channel.call({"kind": "ask", "n": n}, 0.05 * n, retries=1)
                    for n in (1, 2, 3)
                ), return_exceptions=True)
                return (started, ended, str(caught.value), len(retries),
                        outcomes, timers.most, channel.pending, channel.in_flight)

        (started, ended, message, retries, outcomes, most_armed, pending,
         in_flight) = vtime.run(scenario())
        first = [t - started for req, t in asked if req == 0]
        assert first == pytest.approx([0.0, 0.1, 0.3], abs=1e-3)
        assert ended - started == pytest.approx(0.7, abs=1e-3)
        assert message == "no reply to ask #0 after 3 attempts"
        assert [type(o) for o in outcomes] == [TimeoutError] * 3
        assert [req for req, _ in asked] == [0, 0, 0, 1, 2, 3, 1, 2, 3]
        assert retries == 2 + 3  # one call per re-send
        assert most_armed == 1
        assert pending == {} and in_flight == 0

    def test_a_late_duplicate_reply_is_ignored(self):
        async def answer_late(conn, frame):
            reply = {"kind": "echo", "req": frame["req"], "of": frame["n"]}
            asyncio.get_running_loop().call_later(0.15, conn.write, reply)

        async def scenario():
            loop = asyncio.get_running_loop()
            seen = []
            async with peer(answer_late) as (port, _), \
                    opened(port, on_frame=seen.append) as channel:
                started = loop.time()
                reply = await channel.call(
                    {"kind": "ask", "n": 0}, 0.1, retries=1
                )
                answered = loop.time() - started
                await asyncio.sleep(0.2)  # the re-send's reply lands
                after = await channel.call({"kind": "ask", "n": 1}, 1.0)
                return reply, answered, seen, after, channel.pending

        reply, answered, seen, after, pending = vtime.run(scenario())
        # The first attempt's reply answered the call; the re-send's,
        # under the same id, arrived later and resolved nothing.
        assert reply["req"] == 0 and answered == pytest.approx(0.15, abs=1e-3)
        assert [f["req"] for f in seen] == [0, 0, 1]
        assert (after["req"], after["of"]) == (1, 1)
        assert pending == {}

    def test_client_stats_count_every_resend(self):
        async def scenario():
            server = NetObjectServer(
                propagation="none",
                fault_factory=lambda: FaultInjector(
                    FaultConfig(drop_probability=1.0), kinds={"write-ack"}
                ),
            )
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    with pytest.raises(
                        RequestTimeout, match=f"after {MAX_RETRIES + 1} attempts"
                    ):
                        await client.write("x", "v")
                    return client.stats.retries, dict(server.requests_by_kind)
            finally:
                await server.close()

        retries, asked = vtime.run(scenario())
        assert retries == MAX_RETRIES
        assert asked["write"] == MAX_RETRIES + 1  # one id, one frame per attempt


@pytest.mark.net
class TestWindow:
    """At most ``window`` requests are outstanding; the rest wait unsent,
    in order, and a request's deadline starts when it leaves."""

    def test_a_request_past_the_window_leaves_when_a_reply_lands(self):
        held = []

        async def hold(conn, frame):
            held.append((conn, frame, asyncio.get_running_loop().time()))

        async def scenario():
            loop = asyncio.get_running_loop()
            async with peer(hold) as (port, _), opened(port, window=2) as channel:
                started, sent = loop.time(), channel.conn.sent
                futures = [
                    channel.start({"kind": "ask", "n": n}, timeout)
                    for n, timeout in enumerate((1.0, 1.0, 0.1))
                ]
                await asyncio.sleep(0.05)
                waited = ([f["n"] for _, f, _ in held], channel.conn.sent - sent,
                          channel.in_flight)
                conn, frame, _ = held[0]
                await echo(conn, frame)  # a slot opens: n=2 leaves now
                await asyncio.sleep(0.07)
                # 0.12 s after n=2 was started, 0.07 s after it left.
                conn, frame, _ = held[2]
                await echo(conn, frame)
                await echo(*held[1][:2])
                replies = await asyncio.gather(*futures)
                return started, waited, held, replies, channel.pending

        started, waited, held, replies, pending = vtime.run(scenario())
        assert waited == ([0, 1], 2, 2)  # the third is not written yet
        assert [f["n"] for _, f, _ in held] == [0, 1, 2]
        assert held[2][2] - started == pytest.approx(0.05, abs=1e-3)
        assert [r["of"] for r in replies] == [0, 1, 2]
        assert pending == {}

    def test_pipeline_depth_bounds_a_clients_outstanding_requests(self):
        """Four awaited writes and two bare copies started on the channel
        (a ring's replica path) through a window of two, every ack 50 ms
        late: three rounds of two."""

        async def scenario():
            loop = asyncio.get_running_loop()
            server = NetObjectServer(
                propagation="none", fault_factory=lambda: FaultInjector(
                    FaultConfig(delay=0.05), kinds={"write-ack"}
                ),
            )
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, pipeline_depth=2,
                ) as client:
                    most = []
                    on_frame = client.channel.on_frame
                    client.channel.on_frame = lambda f: (
                        most.append(client.channel.in_flight), on_frame(f)
                    )
                    started = loop.time()
                    writes = [client.write(f"w{i}", i) for i in range(4)]
                    copies = [
                        client.channel.start(
                            {"kind": "write", "obj": f"s{i}", "value": i},
                            REQUEST_TIMEOUT,
                            finish=lambda reply: reply["alpha"],
                        )
                        for i in range(2)
                    ]
                    alphas = await asyncio.gather(*writes, *copies)
                    return loop.time() - started, alphas, max(most)
            finally:
                await server.close()

        took, alphas, most = vtime.run(scenario())
        assert len(set(alphas)) == 6
        assert most == 2
        assert took == pytest.approx(0.15, abs=5e-3)


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

    def test_a_peer_of_another_protocol_version_is_refused_by_name(self):
        """Before PR 24 ``hello-ack["protocol"]`` was never read: a v1
        peer would fail later, with "undecodable frame"."""
        async def scenario():
            async with peer(echo, protocol=1) as (port, ended):
                channel = Channel(7, "127.0.0.1", port)
                with pytest.raises(
                    ConnectionError,
                    match=rf"speaks wire protocol 1, this end {PROTOCOL_VERSION}",
                ):
                    await channel.open(1.0)
                assert not channel.connected and channel.conn is None
                return await asyncio.wait_for(ended, 1.0)

        end = asyncio.run(scenario())
        assert end is None or isinstance(end, ConnectionError)  # aborted too

    def test_the_server_refuses_a_stated_mismatch_and_serves_an_unstated_one(self):
        async def greet(server, **stated):
            conn = await dial(server.host, server.port)
            try:
                await conn.send({"kind": "hello", "client_id": 7, **stated})
                first = await asyncio.wait_for(conn.recv(), 1.0)
                return first, await asyncio.wait_for(conn.recv(), 1.0)
            finally:
                await conn.close()

        async def scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                refused = [await greet(server, protocol=v) for v in (2, 3)]
                conn = await dial(server.host, server.port)  # raw peer, ``nc``
                await conn.send({"kind": "hello", "client_id": 8})
                ack = await asyncio.wait_for(conn.recv(), 1.0)
                await conn.close()
                channel = Channel(9, server.host, server.port)  # states ours
                stated = await channel.open(1.0)
                await channel.close()
                return refused, ack, stated
            finally:
                await server.close()

        refused, ack, stated = asyncio.run(scenario())
        for version, (error, eof) in zip((2, 3), refused):
            assert error["kind"] == "error" and eof is None  # error, then close
            assert (f"wire protocol {version} asked for, this server speaks "
                    f"{PROTOCOL_VERSION}") in error["error"]
        assert ack["kind"] == stated["kind"] == HELLO_ACK
        assert ack["protocol"] == stated["protocol"] == PROTOCOL_VERSION == 4

    def test_faults_are_consulted_after_start_and_never_before(self):
        faults = FaultInjector(FaultConfig())
        faults.partition("both")  # drops everything, both ways

        async def scenario():
            async with peer(echo) as (port, _):
                channel = Channel(7, "127.0.0.1", port, faults=faults)
                await channel.open(1.0)
                before = faults.stats.planned
                channel.attach()
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
    """Replace, not fork: nobody but the channel dials, says hello or
    keeps a reply table, and only the two ends of the wire take frames
    from ``buffer_updated``."""

    def test_only_the_channel_dials_and_both_ends_take_delivery(self):
        assert callers_of("dial") == {"net/channel.py"}
        assert sorted(
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if ".deliver(" in path.read_text(encoding="utf-8")
        ) == ["net/channel.py", "net/server.py"]

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

    def test_the_ladder_and_the_window_are_the_channels(self):
        """Retransmission and pipelining have one home: no semaphore,
        no private asyncio attribute and no retry counting beside the
        channel, and a replicated write starts no task per copy."""
        assert callers_of("Semaphore") & {
            "net/client.py", "net/channel.py", "net/ring_router.py",
        } == set()
        assert "_value" not in names_in(SRC / "net" / "client.py")
        counts_retries = {
            str(path.relative_to(SRC)) for path in (SRC / "net").glob("*.py")
            if "stats.retries += 1" in path.read_text(encoding="utf-8")
        }
        assert counts_retries == {"net/client.py"}  # the channel's on_retry
        assert methods_where(
            "ReplicatedPlacement", SRC / "ring" / "placement.py",
            lambda node: isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("ensure_future", "wait"),
        ) == ["write"]  # asyncio.wait, for W < N only; repairs are started copies


GREETING = {"kind": "hello", "client_id": 1}

#: Frames that used to be met with EOF (the hello) or with silence.
MALFORMED = {
    "hello, client_id no integer": {"kind": "hello", "client_id": "abc"},
    # Served as clients -1 and 1, these would share their exactly-once
    # keys with any other peer served under that id.
    "hello, no client_id": {"kind": "hello"},
    "hello, client_id true": {"kind": "hello", "client_id": True},
    "promote, negative bound": {"kind": "promote", "bound": -1, "req": 7},
    "promote, bound no number": {"kind": "promote", "bound": "x", "req": 7},
    "write, no obj": {"kind": "write", "value": 1, "req": 7},
    "handoff, short moves rows": {"kind": "handoff", "moves": [[0, 1]], "req": 7},
}


@pytest.mark.net
@pytest.mark.filterwarnings("error")
class TestAnswer:
    """A request that cannot be served is answered ``error``, at once, on
    a connection that goes on serving — whichever way it was scheduled."""

    @pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
    def test_a_malformed_frame_gets_an_error_and_the_next_request_is_served(
        self, frame
    ):
        greeted = frame["kind"] != "hello"  # else the frame *is* the greeting

        async def scenario():
            # What asyncio would print at loop close ("Task exception was
            # never retrieved") comes through this handler.
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            server = await NetObjectServer(propagation="none").start()
            agent = await SwimAgent(
                0, server, ClusterView(), ClusterConfig(probe_period=30.0)
            ).start()
            try:
                conn = await dial(server.host, server.port)
                if greeted:
                    await conn.send(GREETING)
                    assert (await conn.recv())["kind"] == HELLO_ACK
                await conn.send(frame)
                error = await asyncio.wait_for(conn.recv(), 1.0)
                if greeted:
                    await conn.send({"kind": "fetch", "obj": "x", "req": 8})
                after = await asyncio.wait_for(conn.recv(), 1.0)
                await conn.close()
            finally:
                await agent.stop()
                await server.close()
            gc.collect()
            return error, after, reported

        error, after, reported = asyncio.run(scenario())
        assert error is not None and error["kind"] == "error" and error["error"]
        assert error.get("req") == frame.get("req")
        if greeted:
            assert (after["kind"], after["req"], after["obj"]) == ("version", 8, "x")
        else:
            assert after is None  # refused: a clean EOF follows the error
        assert reported == []

    @pytest.mark.parametrize("frame, error, raised", [
        # The data plane, served in place ...
        ({"kind": "write", "value": 1, "req": 0}, "KeyError: 'obj'", KeyError),
        # ... and the control plane, served by a task.
        ({"kind": "promote", "bound": "x", "req": 0},
         "ValueError: could not convert string to float: 'x'", ValueError),
    ], ids=["in place", "as a task"])
    def test_a_request_that_raises_is_answered_and_logged_once_on_either_path(
        self, frame, error, raised, caplog
    ):
        async def scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                conn = await dial(server.host, server.port)
                await conn.send(GREETING)
                await conn.recv()
                await conn.send(frame)
                reply = await asyncio.wait_for(conn.recv(), 1.0)
                await conn.close()
                return reply, dict(server.requests_by_kind)
            finally:
                await server.close()

        with caplog.at_level("ERROR", logger="repro.net.server"):
            reply, counted = asyncio.run(scenario())
        assert reply == {"kind": "error", "error": error, "req": 0}
        assert counted == {frame["kind"]: 1}
        logged = [r for r in caplog.records if r.name == "repro.net.server"]
        assert [r.getMessage() for r in logged] == [
            f"request {frame['kind']!r} from client 1 failed"
        ]
        assert logged[0].exc_info[0] is raised

    def test_a_reply_too_large_to_frame_ends_only_its_connection(self, caplog):
        """The write fits in a frame, the ``version`` that ships it to a
        cold reader does not.  Raised inside ``buffer_updated``, it ends
        that reader's connection — which fails its call at once, with no
        retransmit ladder — and asyncio reports no failed protocol
        callback; everybody else is still served."""
        # The packed write's head is 10 bytes with a 3-byte obj; the JSON
        # version reply adds its keys, alpha and req around the value.
        blob = "x" * (MAX_FRAME_BYTES - 16)

        async def scenario():
            reported = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            server = await NetObjectServer(propagation="none").start()
            try:
                async with NetCacheClient(1, server.host, server.port) as writer, \
                        NetCacheClient(2, server.host, server.port) as reader:
                    await writer.write("big", blob)
                    started = loop.time()
                    with pytest.raises(ConnectionError):
                        await reader.read("big")
                    took = loop.time() - started
                    async with NetCacheClient(3, server.host, server.port) as late:
                        await late.write("small", 1)
                    await writer.write("small", 2)
                    return (took, REQUEST_TIMEOUT, reader.stats.retries,
                            reader.connected, reported, server.engine.store["small"])
            finally:
                await server.close()

        with caplog.at_level("ERROR", logger="repro.net.server"):
            took, timeout, retries, connected, reported, small = asyncio.run(scenario())
        assert took < timeout and retries == 0 and not connected
        assert reported == []  # no "Fatal error: protocol.buffer_updated() ..."
        assert small.value == 2
        logged = [r for r in caplog.records if r.name == "repro.net.server"]
        assert [r.getMessage() for r in logged] == [
            "reply to client 2 cannot be framed"
        ]
        assert logged[0].exc_info[0] is FrameError


def methods_where(class_name, path, matches):
    """Names of the methods of ``class_name`` in which some node satisfies
    ``matches``, one entry per matching node."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (cls,) = [n for n in ast.walk(tree)
              if isinstance(n, ast.ClassDef) and n.name == class_name]
    return sorted(
        method.name
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(method) if matches(node)
    )


class TestOneAnsweringEnd:
    """Replace, not fork: handlers return frames; counting a request and
    running its handler happen in ``_answer``, stamping and writing its
    reply in ``_release``, and nowhere else."""

    SERVER = SRC / "net" / "server.py"
    SWIM = SRC / "cluster" / "swim.py"

    def test_a_connection_is_written_to_in_five_places(self):
        def writes_to_conn(node):
            return (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in ("send", "write")
                    and getattr(node.func.value, "id", None) == "conn")

        # Every reply without waiting, in _release; _serve: the hello
        # refusal and the hello-ack; shutdown: the bye.
        assert methods_where("NetObjectServer", self.SERVER, writes_to_conn) == [
            "_feed", "_release", "_serve", "_serve", "shutdown",
        ]
        text = self.SERVER.read_text(encoding="utf-8")
        assert (text.count(".send("), text.count(".write(")) == (4, 1)

    def test_requests_are_counted_in_one_place(self):
        def counts_a_request(node):
            return (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "attr", None) == "requests_by_kind")

        assert methods_where(
            "NetObjectServer", self.SERVER, counts_a_request
        ) == ["_answer"]

    def test_the_agent_touches_no_connection(self):
        assert "FrameConnection" not in names_in(self.SWIM)
        assert "send" not in names_in(self.SWIM)
        assert not hasattr(SwimAgent, "on_frame")

    def test_engine_state_is_read_from_the_engine(self):
        assert set(vars(NetObjectServer)) & {
            "store", "context", "recovered_old", "revalidations", "epoch",
            "ring", "promotions", "requests", "replies", "dedup_replays",
            "batch_frames",
        } == set()

    def test_the_scattered_handlers_are_gone(self):
        for gone in ("_on_sync", "_stamped", "_dispatch", "_read_attempt",
                     "write-batch", "WRITE_BATCH", "_flush_batches",
                     "write_many", "batched_writes", "take_queued",
                     "_ENDS_BURST", "def homes", "def resync",
                     "def cut_directions", "def partitioned",
                     "def happens_before", "def concurrent_with",
                     "def reads_from(", "def lin_equals_tsc_zero",
                     "def sc_equals_tsc_infinity"):
            assert [
                str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                if gone in path.read_text(encoding="utf-8")
            ] == [], gone

    def test_a_write_has_no_batch_knob(self):
        assert "batch" not in TargetSpec.__dataclass_fields__
        for cls in (NetCacheClient, RingRouter):
            assert "batch" not in inspect.signature(cls).parameters, cls
        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        (ring,) = [action for action in sub.choices["ring"]._actions
                   if isinstance(action, argparse._SubParsersAction)]
        for parser in (sub.choices["client"], ring.choices["soak"]):
            flags = {flag for action in parser._actions
                     for flag in action.option_strings}
            assert "--batch" not in flags, parser.prog


class TestOneExecutionModel:
    """A data-plane request is served one way: in place, by a plain
    function, with nothing to wait for — so nothing else can run in the
    middle of it, and there is nothing to lock, shed, park or count."""

    SERVER = SRC / "net" / "server.py"

    def test_the_server_has_no_latency_and_no_inflight_limit(self):
        params = list(inspect.signature(NetObjectServer).parameters)
        assert len(params) == 9
        assert {"latency", "inflight_limit"} & set(params) == set()
        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        flags = {flag for action in sub.choices["serve"]._actions
                 for flag in action.option_strings}
        assert {"--latency", "--inflight-limit"} & flags == set()

    def test_nothing_on_the_server_waits_locks_or_parks(self):
        names = names_in(self.SERVER)
        assert {"Lock", "sleep", "shield", "create_future"} & names == set()
        tree = ast.parse(self.SERVER.read_text(encoding="utf-8"))
        (handler,) = [node for node in ast.walk(tree)
                      if getattr(node, "name", None) == "_on_request"]
        assert isinstance(handler, ast.FunctionDef)  # an await would not compile
        assert "promote" not in vars(NetObjectServer)

    def test_a_task_is_started_for_the_feeder_and_the_control_plane_only(self):
        def starts_a_task(node):
            return (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in (
                        "ensure_future", "create_task"))

        assert methods_where("NetObjectServer", self.SERVER, starts_a_task) == [
            "_answer", "_serve",
        ]
        functions = {
            node.name: node for node in ast.walk(ast.parse(
                self.SERVER.read_text(encoding="utf-8")
            )) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        started = {
            name: [node.args[0].func.attr for node in ast.walk(functions[name])
                   if starts_a_task(node)]
            for name in ("_serve", "_answer")
        }
        assert started == {"_serve": ["_feed"], "_answer": ["_control"]}
        # ... the control plane's only behind its test, and _answer, which
        # buffer_updated calls, is a plain function: it cannot wait.
        (branch,) = [node for node in ast.walk(functions["_answer"])
                     if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "kind in CLUSTER_KINDS"]
        assert any(starts_a_task(node) for node in ast.walk(branch))
        for plain in ("_answer", "_release", "_on_request"):
            assert isinstance(functions[plain], ast.FunctionDef), plain
        # The handler task takes no request from a queue: after the hello
        # it reads only the end of the stream.
        recvs = [node for node in ast.walk(functions["_serve"])
                 if getattr(node, "attr", None) == "recv"]
        assert len(recvs) == 2

    def test_busy_is_gone_from_the_wire(self):
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                assert getattr(node, "id", None) != "BUSY", path
                assert getattr(node, "attr", None) != "BUSY", path
                assert getattr(node, "value", None) != "busy", path
        assert PROTOCOL_VERSION == 4

    def test_the_client_reads_engine_state_from_the_engine(self):
        assert {"cache", "context", "delta"} & set(vars(NetCacheClient)) == set()
