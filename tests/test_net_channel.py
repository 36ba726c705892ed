"""Each end of the wire, once.

The asking end is ``repro.net.channel``: a scripted peer on a real
loopback socket plays the answering end, so each case says exactly which
frames come back and when, and ``TestOneAskingEnd`` pins the layering —
dial, hello, reply matching and the per-attempt wait live in
``net/channel.py`` and nowhere else under ``src/``.

The answering end is ``NetObjectServer._answer``: ``TestAnswer`` plays
the asking end by hand over a bare connection, and ``TestOneAnsweringEnd``
pins that every request is counted, run, failed, stamped and sent there;
``TestOneExecutionModel`` that a data-plane request is run in place.
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
from repro.net.client import NetCacheClient
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import HELLO_ACK, PROTOCOL_VERSION, dial, listen
from repro.load.scenario import TargetSpec
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer

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
    """Replace, not fork: handlers return frames; counting, failing,
    stamping and sending a reply happen in ``_answer`` and nowhere else."""

    SERVER = SRC / "net" / "server.py"
    SWIM = SRC / "cluster" / "swim.py"

    def test_a_connection_is_written_to_in_five_places(self):
        def sends_on_conn(node):
            return (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "send"
                    and getattr(node.func.value, "id", None) == "conn")

        # _serve: the hello refusal and the hello-ack; shutdown: the bye.
        assert methods_where("NetObjectServer", self.SERVER, sends_on_conn) == [
            "_answer", "_feed", "_serve", "_serve", "shutdown",
        ]
        assert self.SERVER.read_text(encoding="utf-8").count(".send(") == 5

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
                     "write_many", "batched_writes"):
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
        assert len(params) == 11
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
                    and getattr(node.func, "attr", None) == "ensure_future")

        assert methods_where("NetObjectServer", self.SERVER, starts_a_task) == [
            "_serve", "_serve",
        ]
        (serve,) = [node for node in ast.walk(ast.parse(
            self.SERVER.read_text(encoding="utf-8")
        )) if getattr(node, "name", None) == "_serve"]
        started = sorted(node.args[0].func.attr for node in ast.walk(serve)
                         if starts_a_task(node))
        assert started == ["_answer", "_feed"]
        # ... and _answer only behind the control-plane test.
        (branch,) = [node for node in ast.walk(serve) if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "kind in CLUSTER_KINDS"]
        assert any(starts_a_task(node) for node in ast.walk(branch))

    def test_busy_is_gone_from_the_wire(self):
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                assert getattr(node, "id", None) != "BUSY", path
                assert getattr(node, "attr", None) != "BUSY", path
                assert getattr(node, "value", None) != "busy", path
        assert PROTOCOL_VERSION == 4

    def test_the_client_reads_engine_state_from_the_engine(self):
        assert {"cache", "context", "delta"} & set(vars(NetCacheClient)) == set()
