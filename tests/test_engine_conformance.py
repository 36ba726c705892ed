"""Driver conformance: every stack drives the *same* engines.

Server side.  One golden request script runs three times — straight through a bare
:class:`~repro.engine.ServerEngine` (the reference), through the
simulator driver (:class:`~repro.protocol.server.PhysicalServer`), and
over real sockets through the TCP driver
(:class:`~repro.net.server.NetObjectServer`).  Each engine carries the
same injected deterministic clocks and records its effect journal
(frame, reply, WAL versions, installed versions per execution); the
journals must be byte-identical after JSON normalization.

What this actually pins down is the *drivers*: that both translate
transport payloads into identical engine frames, consult the replay
cache before executing (a duplicated request leaves no journal entry on
either stack), and add no effects of their own.  Any divergence — a
driver mutating a frame, re-executing a duplicate, stamping its own
times — shows up as a journal diff.

Client side.  One golden script of operations and scripted reply frames
(cold fetch, hit, validate answered ``still-valid``, write ack, push,
validate answered with a version, invalidate, a duplicated reply) runs
through a bare :class:`~repro.engine.CacheEngine`, the simulator driver
and real sockets — on the stock event loop and on the virtual-time one
(:mod:`repro.sim.vtime`) — under identical injected clock readings;
cache state, ``Context_i`` and every ``ClientStats`` field must come out
identical — and the same for :class:`~repro.engine.CausalCacheEngine` on
the bare engine and the simulator.  An ``ast`` walk pins the layering
that makes this possible: no driver calls a cache-engine rule method.
"""

import ast
import asyncio
import dataclasses
import json
import pathlib

import pytest

import repro
from repro.checkers import check_tcc
from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.engine import (
    CacheEngine,
    CausalCacheEngine,
    ServerEngine,
    StalenessAction,
    messages,
    version_payload,
)
from repro.engine.versions import LogicalVersion, PhysicalVersion
from repro.net.client import NetCacheClient
from repro.net.framing import (
    BYE, HELLO, HELLO_ACK, PROTOCOL_VERSION, SYNC, SYNC_ACK, dial, listen,
)
from repro.net.server import NetObjectServer
from repro.protocol import Cluster, ObjectDirectory, PushPolicy
from repro.protocol.cache_client import SimCacheClient
from repro.protocol.server import PhysicalServer
from repro.sim import vtime
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.node import Node

CLOCK_START = 100.0  # engine (protocol timescale) readings: 100, 101, ...
WALL_START = 1000.0  # ground-truth readings: 1000, 1001, ...


class FakeClock:
    """A deterministic clock: each reading advances by ``step``."""

    def __init__(self, start: float, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading


def golden_script():
    """The golden request sequence, as a generator: yields the next
    frame, receives the (engine) reply it produced.  Adaptive frames
    (the validate alphas) come from earlier replies, so the *frames*
    stay identical across drivers as long as the replies do."""
    yield {"kind": messages.FETCH, "obj": "x", "req": 0}
    ack = yield {"kind": messages.WRITE, "obj": "x", "value": "v1", "req": 1}
    alpha1 = ack["alpha"]
    yield {"kind": messages.VALIDATE, "obj": "x", "alpha": alpha1, "req": 2}
    yield {"kind": messages.WRITE, "obj": "x", "value": "v2", "req": 3}
    # Now stale: answered with the full v2 version.
    yield {"kind": messages.VALIDATE, "obj": "x", "alpha": alpha1, "req": 4}
    yield {"kind": messages.WRITE, "obj": "a", "value": 1, "req": 5}
    yield {
        "kind": messages.VALIDATE_BATCH,
        "items": [{"obj": "a", "alpha": None}, {"obj": "x", "alpha": alpha1}],
        "req": 6,
    }
    # A duplicate of request 1: replayed by the driver, so it must not
    # produce a journal entry on either stack.
    yield {"kind": messages.WRITE, "obj": "x", "value": "v1", "req": 1}
    yield {"kind": messages.FETCH, "obj": "b", "req": 7}


def normalize(journal):
    """Engine journal -> plain JSON (versions via the wire payload)."""
    out = []
    for entry in journal:
        out.append({
            "frame": entry["frame"],
            "reply": entry["reply"],
            "wal": [version_payload(v) for v in entry["wal"]],
            "installed": [version_payload(v) for v in entry["installed"]],
        })
    return json.loads(json.dumps(out, sort_keys=True))


def instrument(engine) -> None:
    engine.clock = FakeClock(CLOCK_START)
    engine.wall = FakeClock(WALL_START)
    engine.journal = []


def run_reference():
    """The script against a bare engine: the conformance baseline."""
    engine = ServerEngine(lambda: 0.0)
    instrument(engine)
    script = golden_script()
    frame = next(script)
    while True:
        cached = engine.replay(engine.dedup_key(1, frame))
        reply = cached if cached is not None else engine.execute(1, frame).reply
        try:
            frame = script.send(reply)
        except StopIteration:
            break
    return normalize(engine.journal)


class Probe(Node):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.replies = []

    def on_message(self, message):
        self.replies.append(message)


def run_sim():
    """The script through the simulator driver."""
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(0.01))
    server = PhysicalServer(0, sim, network)
    instrument(server.engine)
    probe = Probe(1, sim, network)
    script = golden_script()
    frame = next(script)
    while True:
        payload = {k: v for k, v in frame.items() if k != "kind"}
        probe.send(0, frame["kind"], payload, size=messages.size_of(frame["kind"]))
        sim.run()
        reply = probe.replies[-1].payload  # the engine's reply frame, as is
        try:
            frame = script.send(reply)
        except StopIteration:
            break
    return normalize(server.engine.journal)


async def run_net():
    """The script over real sockets through the TCP driver."""
    server = NetObjectServer(propagation="none")
    await server.start()
    try:
        conn = await dial(server.host, server.port)
        try:
            await conn.send({"kind": HELLO, "client_id": 1})
            ack = await conn.recv()
            assert ack is not None and ack["kind"] == HELLO_ACK
            instrument(server.engine)
            script = golden_script()
            frame = next(script)
            while True:
                await conn.send(frame)
                reply = await conn.recv()
                assert reply is not None
                try:
                    frame = script.send(reply)
                except StopIteration:
                    break
        finally:
            await conn.close()
    finally:
        await server.close()
    return normalize(server.engine.journal)


class TestSimConformance:
    def test_sim_driver_matches_reference_engine(self):
        reference = run_reference()
        assert len(reference) == 8  # 9 frames, one replayed duplicate
        assert run_sim() == reference

    def test_journal_covers_every_effect_kind(self):
        """The golden script is only a conformance oracle if it exercises
        the full effect surface: replies of every kind and an
        LWW-discarded write would all be nice — keep at least two
        installs, one still-valid, one version refresh and one cold
        batch item in the journal."""
        kinds = [entry["reply"]["kind"] for entry in run_reference()]
        assert kinds == [
            messages.VERSION, messages.WRITE_ACK, messages.STILL_VALID,
            messages.WRITE_ACK, messages.VERSION, messages.WRITE_ACK,
            messages.VALIDATE_BATCH_ACK, messages.VERSION,
        ]


@pytest.mark.net
@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestNetConformance:
    def test_net_driver_matches_reference_engine(self):
        reference = run_reference()
        net_journal = asyncio.run(run_net())
        assert net_journal == reference

    def test_all_three_drivers_agree(self):
        """The transitive statement the refactor exists to make true —
        and the TCP driver makes it on either loop."""
        reference = run_reference()
        assert run_sim() == reference == asyncio.run(run_net())
        assert vtime.run(run_net()) == reference


# ---------------------------------------------------------------------------
# Client side: one script of operations and reply frames, three drivers
# (the TCP one on two loops).
# ---------------------------------------------------------------------------

DELTA = 5.0
HALF_RTT = 0.5  # every reply lands one time unit after its request left
# All script times are multiples of 0.5: exact in binary floating point,
# so the simulator's accumulated timeouts hit them exactly.


def physical_script():
    """Steps ``("read", obj, t, reply | None)``, ``("write", obj, value,
    t, reply)``, ``("server", t, frame)`` and ``("duplicate", t)`` (the
    last reply, delivered again at ``t``).  ``reply`` is None for a read
    the cache must serve itself."""

    def version(obj, value, alpha, omega, writer):
        return {"kind": messages.VERSION, "obj": obj, "value": value,
                "alpha": alpha, "omega": omega, "writer": writer}

    return [
        ("read", "x", 10.0, version("x", "v0", 1.0, 10.5, 7)),  # cold fetch
        ("read", "x", 12.0, None),  # hit
        # Rule 3 moves Context_i past x's ending time: validate.
        ("read", "x", 20.0,
         {"kind": messages.STILL_VALID, "obj": "x", "omega": 20.5}),
        ("write", "y", "w1", 22.0,
         {"kind": messages.WRITE_ACK, "obj": "y", "alpha": 22.5,
          "installed": True, "true_time": 22.5}),
        ("server", 25.0,
         {**version("x", "v2", 24.0, 24.0, 9), "kind": messages.PUSH}),
        ("read", "y", 26.0, version("y", "w9", 25.5, 26.5, 9)),  # refreshed
        ("server", 29.0,
         {"kind": messages.INVALIDATE, "obj": "x", "alpha": 28.0}),
        ("duplicate", 30.0),
        ("read", "x", 31.0, version("x", "v3", 28.0, 31.5, 9)),
        ("read", "x", 33.0, None),  # hit
    ]


def causal_script():
    """The same shape over vector timestamps (site 0 of 3 is the cache
    under test).  Built afresh per run: the engine keeps the version
    objects it is handed and advances their ending times in place."""
    ts = VectorTimestamp

    def version(obj, value, alpha, omega, beta, writer):
        return {"kind": messages.VERSION, "version": LogicalVersion(
            obj, value, alpha=ts(alpha), omega=ts(omega), writer=writer, beta=beta)}

    return [
        ("read", "x", 10.0, version("x", "v0", (0, 1, 0), (0, 1, 0), 10.5, 1)),
        ("read", "x", 12.0, None),  # hit
        # beta fell more than delta behind: validate.
        ("read", "x", 20.0,
         {"kind": messages.STILL_VALID, "obj": "x",
          "omega": ts((0, 1, 0)), "beta": 20.5}),
        ("write", "y", "w1", 22.0,
         {"kind": messages.WRITE_ACK, "obj": "y", "installed": True,
          "beta": 22.5, "true_time": 22.5}),
        ("server", 25.0,
         {**version("x", "v2", (1, 2, 0), (1, 2, 0), 24.5, 1),
          "kind": messages.PUSH}),
        ("server", 25.5,
         {**version("z", "u1", (1, 2, 2), (1, 2, 2), 25.0, 2),
          "kind": messages.PUSH}),
        # z's push moved Context_i causally past x's ending time: x is old.
        ("read", "x", 26.0, version("x", "v3", (1, 3, 2), (1, 3, 2), 26.5, 1)),
        ("server", 29.0,
         {"kind": messages.INVALIDATE, "obj": "z", "alpha": ts((1, 3, 3))}),
        ("duplicate", 30.0),
        ("read", "z", 31.0, version("z", "u2", (1, 3, 3), (1, 3, 3), 31.5, 2)),
        ("read", "z", 33.0, None),  # hit
    ]


def observed(engine, values):
    """Everything the script may have changed, in comparable form."""
    return {
        "values": values,
        "context": engine.context,
        "logical_time": engine.logical_time(),
        "stats": dataclasses.asdict(engine.stats),
        "cache": {
            obj: (dict(vars(entry.version)), entry.old,
                  entry.fetched_at, entry.hits)
            for obj, entry in sorted(engine.cache.items())
        },
    }


def run_bare(engine, script):
    """The reference: the script straight through the engine.  Request
    ids and dropping a duplicated reply are the drivers' business."""
    values = []
    for step in script:
        if step[0] == "read":
            _, obj, t, reply = step
            op = engine.begin_read(obj, t)
            assert op.hit == (reply is None), step
            values.append(
                op.value if op.hit else engine.finish_read(op, reply, t + 2 * HALF_RTT))
        elif step[0] == "write":
            _, obj, value, t, reply = step
            op = engine.begin_write(obj, value, t)
            values.append(engine.finish_write(op, reply, t + 2 * HALF_RTT))
        elif step[0] == "server":
            engine.on_server_frame(step[2], step[1])
    return observed(engine, values)


class ScriptedSimServer(Node):
    """Answers each request with the reply the script names next."""

    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.reply = self.last = None

    def on_message(self, message):
        self.last = {**self.reply, "req": message.payload["req"]}
        self.deliver(message.src, self.last)

    def deliver(self, dst, frame):
        self.send(dst, frame["kind"], frame, size=messages.size_of(frame["kind"]))


def run_sim_client(engine, script):
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(HALF_RTT))
    server = ScriptedSimServer(0, sim, network)
    client = SimCacheClient(1, sim, network, ObjectDirectory([0]), engine)
    values = []

    def program():
        for step in script:
            if step[0] in ("read", "write"):
                yield sim.timeout(step[-2] - sim.now)
                server.reply = step[-1]
                event = (client.read(step[1]) if step[0] == "read"
                         else client.write(step[1], step[2]))
                values.append((yield event))
            else:  # leaves the server half a round trip before it lands
                yield sim.timeout(step[1] - HALF_RTT - sim.now)
                server.deliver(1, step[2] if step[0] == "server" else server.last)

    sim.process(program())
    sim.run()
    return observed(engine, values)


class ScriptClock:
    """The injected clock of the live drivers: reads what the script set."""

    t = 0.0

    def now(self):
        return self.t

    __call__ = now


async def run_net_client(script):
    clock = ScriptClock()
    state = {"reply": None, "last": None, "conn": None}

    async def serve(conn):
        state["conn"] = conn
        try:
            assert (await conn.recv())["kind"] == HELLO
            await conn.send({"kind": HELLO_ACK, "protocol": PROTOCOL_VERSION})
            while True:
                frame = await conn.recv()
                if frame is None or frame["kind"] == BYE:
                    return
                if frame["kind"] == SYNC:  # the handshake, before the script
                    await conn.send({"kind": SYNC_ACK, "t0": frame["t0"],
                                     "t1": 0.0, "t2": 0.0})
                    continue
                state["last"] = {**state["reply"][1], "req": frame["req"]}
                clock.t = state["reply"][0]
                await conn.send(state["last"])
        finally:
            await conn.close()

    listener = await listen(serve, "127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    client = NetCacheClient(1, "127.0.0.1", port, delta=DELTA)
    values = []
    try:
        await client.connect()
        client.now = clock.now  # the site reads its clock through now()
        for step in script:
            if step[0] in ("read", "write"):
                clock.t = step[-2]
                state["reply"] = (step[-2] + 2 * HALF_RTT, step[-1])
                values.append(
                    await client.read(step[1]) if step[0] == "read"
                    else await client.write(step[1], step[2]))
            elif step[0] == "server":
                stats = client.stats
                seen = stats.pushes + stats.push_invalidations
                clock.t = step[1]
                await state["conn"].send(step[2])
                while stats.pushes + stats.push_invalidations == seen:
                    await asyncio.sleep(0.001)
            else:  # TCP keeps order: it is read before the next reply
                await state["conn"].send(state["last"])
    finally:
        await client.close()
        listener.close()
        await listener.wait_closed()
    return observed(client.engine, values)


def causal_engine():
    return CausalCacheEngine(
        site_id=1, vclock=VectorClock(0, 3),
        zero_timestamp=VectorTimestamp.zero(3), delta=DELTA,
    )


class TestClientConformance:
    def test_the_script_exercises_every_path(self):
        got = run_bare(CacheEngine(site_id=1, delta=DELTA), physical_script())
        assert got["values"] == ["v0", "v0", "v0", 22.5, "w9", "v3", "v3"]
        stats = got["stats"]
        assert (stats["fetches"], stats["fresh_hits"], stats["validations"]) == (1, 2, 3)
        assert (stats["revalidated"], stats["refreshed"]) == (1, 2)
        assert (stats["pushes"], stats["push_invalidations"]) == (1, 1)
        assert (stats["reads"], stats["writes"]) == (6, 1)
        assert stats["read_latencies"] == [1.0, 0.0, 1.0, 1.0, 1.0, 0.0]
        assert stats["marked_old"] >= 3

    def test_sim_driver_matches_bare_engine(self):
        reference = run_bare(CacheEngine(site_id=1, delta=DELTA), physical_script())
        assert run_sim_client(
            CacheEngine(site_id=1, delta=DELTA), physical_script()) == reference

    @pytest.mark.net
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_net_driver_matches_bare_engine(self):
        reference = run_bare(CacheEngine(site_id=1, delta=DELTA), physical_script())
        assert asyncio.run(run_net_client(physical_script())) == reference

    @pytest.mark.net
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_net_driver_matches_bare_engine_on_the_virtual_loop(self):
        """The same driver, untouched, when the loop's clock is a counter."""
        reference = run_bare(CacheEngine(site_id=1, delta=DELTA), physical_script())
        assert vtime.run(run_net_client(physical_script())) == reference

    def test_causal_sim_driver_matches_bare_engine(self):
        reference = run_bare(causal_engine(), causal_script())
        stats = reference["stats"]
        assert (stats["fetches"], stats["fresh_hits"], stats["validations"]) == (1, 2, 3)
        assert (stats["revalidated"], stats["refreshed"]) == (1, 2)
        assert (stats["pushes"], stats["push_invalidations"]) == (2, 1)
        assert run_sim_client(causal_engine(), causal_script()) == reference


RULE_METHODS = {
    "rule3", "lookup", "install_fetched", "apply_still_valid",
    "apply_write_ack", "apply_write_beta", "local_write", "apply_push",
    "apply_invalidate",
}


def method_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        (node.func.attr, node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


class TestLayering:
    """The architecture, pinned: drivers speak frames to the engines."""

    SRC = pathlib.Path(repro.__file__).parent

    def test_no_driver_calls_a_cache_rule_method(self):
        offenders = [
            f"{path.relative_to(self.SRC)}:{line} .{name}()"
            for path in sorted(self.SRC.rglob("*.py"))
            if "engine" not in path.relative_to(self.SRC).parts
            for name, line in sorted(method_calls(path))
            if name in RULE_METHODS
        ]
        assert offenders == []
        for package in ("net", "protocol", "sim"):  # the walk saw the drivers
            assert any((self.SRC / package).glob("*.py"))


class TestStillValidForAVanishedEntry:
    """A reordered ``invalidate`` can delete the entry a validation is
    in flight for; the ``still-valid`` that then lands used to complete
    the read with ``None``."""

    @pytest.mark.parametrize("frame_kind", [messages.INVALIDATE, messages.PUSH])
    def test_read_completes_with_the_vouched_value(self, frame_kind):
        engine = CacheEngine(
            site_id=1, delta=DELTA, staleness_action=StalenessAction.INVALIDATE)
        engine.install_fetched(PhysicalVersion("x", "v0", 1.0, 1.0, 7), 1.0)
        engine.cache["x"].old = True
        op = engine.begin_read("x", 2.0)
        assert op.action == "validate"
        if frame_kind == messages.INVALIDATE:
            engine.on_server_frame(
                {"kind": frame_kind, "obj": "x", "alpha": 2.5}, 2.5)
            assert "x" not in engine.cache
        else:
            engine.on_server_frame(
                {"kind": frame_kind, "obj": "x", "value": "v1", "alpha": 2.5,
                 "omega": 2.5, "writer": 9}, 2.5)
        reply = {"kind": messages.STILL_VALID, "obj": "x", "omega": 2.25}
        assert engine.finish_read(op, reply, 3.0) == "v0"
        # Nothing was re-cached or renewed on the strength of that reply.
        if frame_kind == messages.INVALIDATE:
            assert "x" not in engine.cache
        else:
            assert engine.cache["x"].version.value == "v1"
            assert engine.cache["x"].version.omega == 2.5
        assert engine.stats.revalidated == 1

    @staticmethod
    def soak(seed):
        cluster = Cluster(
            n_clients=3, variant="tcc", delta=0.05, seed=seed,
            push_policy=PushPolicy.INVALIDATE,
            staleness_action=StalenessAction.INVALIDATE,
        )

        def workload(cluster, client, rng):
            for _ in range(300):
                yield cluster.sim.timeout(rng.uniform(0, 0.03))
                obj = rng.choice(["x", "y"])
                if rng.random() < 0.3:
                    yield client.write(obj, cluster.values.next_value(client.node_id))
                else:
                    yield client.read(obj)

        cluster.spawn(workload)
        cluster.run(until=200)
        return cluster.history()

    def test_no_read_returns_a_never_written_value(self):
        """116 reads over these seeds returned ``None`` before the fix."""
        for seed in range(30):
            history = self.soak(seed)
            written = {w.value for w in history.writes} | {history.initial_value}
            strays = [r.label() for r in history.reads if r.value not in written]
            assert strays == [], f"seed {seed}"

    @pytest.mark.parametrize("seed", [2, 27])
    def test_the_history_is_still_tcc(self, seed):
        # delta plus one round trip of the default 10-50 ms latency.
        result = check_tcc(self.soak(seed), delta=0.05 + 0.1)
        assert result.satisfied, result.violation
