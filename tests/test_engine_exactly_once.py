"""Exactly-once write regression with *several* writes outstanding.

Before the shared engine, the simulator servers remembered only the last
write ack per client (a one-deep ``_last_write_ack`` memo).  With two
pipelined writes outstanding, the second ack clobbered the first's memo,
so a retransmission of the *first* write re-executed: a second install,
a second effective time for one write — exactly what Definition 1's
``T(w)`` forbids — and, if a competing write had landed in between, the
retransmit would resurrect the overwritten value.

The engine's LRU reply cache (keyed ``(client, req)``) fixes this on
both stacks at once; these tests pin the scenario on each driver.
"""

import asyncio

import pytest

from repro.engine import messages
from repro.engine.reply_cache import REPLY_CACHE_SIZE, ReplyCache
from repro.net.client import NetCacheClient
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.server import NetObjectServer
from repro.protocol.server import PhysicalServer
from repro.sim import vtime
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.node import Node


class Probe(Node):
    """A scripted client: sends raw frames, records every reply."""

    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.replies = []

    def on_message(self, message):
        self.replies.append(message)

    def write(self, obj, value, req):
        self.send(
            0, messages.WRITE, {"obj": obj, "value": value, "req": req},
            size=messages.size_of(messages.WRITE),
        )

    def acks(self, req):
        return [
            m.payload for m in self.replies
            if m.kind == messages.WRITE_ACK and m.payload.get("req") == req
        ]


def sim_rig():
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(0.01))
    server = PhysicalServer(0, sim, network)
    probe = Probe(1, sim, network)
    return sim, server, probe


class TestSimStack:
    def test_two_outstanding_writes_then_retransmit_of_first(self):
        """Two pipelined writes, then the first is retransmitted: one
        install per unique write, and the replayed ack is byte-identical
        to the original (same alpha, same true_time)."""
        sim, server, probe = sim_rig()
        probe.write("x", "v1", req=0)
        probe.write("y", "v2", req=1)  # outstanding alongside req 0
        sim.run()
        assert server.writes_installed == 2
        assert len(probe.acks(0)) == 1 and len(probe.acks(1)) == 1
        original = dict(probe.acks(0)[0])

        probe.write("x", "v1", req=0)  # retransmission, same request id
        sim.run()

        assert server.writes_installed == 2, "the retransmit must not re-install"
        assert server.dedup_replays == 1
        assert len(probe.acks(0)) == 2
        assert probe.acks(0)[1] == original, (
            "the replay must carry the original alpha/true_time"
        )
        assert server.store["x"].alpha == original["alpha"]

    def test_retransmit_does_not_resurrect_an_overwritten_value(self):
        """The sharpest form of the old bug: a competing write lands
        between the original and the retransmit.  A re-execution would
        re-install ``v1`` *after* ``v3``; a replay leaves ``v3`` alone."""
        sim, server, probe = sim_rig()
        rival = Probe(2, sim, network=probe.network)
        probe.write("x", "v1", req=0)
        probe.write("y", "v2", req=1)
        sim.run()
        alpha1 = probe.acks(0)[0]["alpha"]

        rival.write("x", "v3", req=0)  # same req id, different client: no clash
        sim.run()
        assert server.store["x"].value == "v3"
        assert server.writes_installed == 3

        probe.write("x", "v1", req=0)  # stale retransmission arrives last
        sim.run()
        assert server.store["x"].value == "v3", (
            "a replayed write must never resurrect an overwritten value"
        )
        assert server.writes_installed == 3
        assert server.dedup_replays == 1
        assert probe.acks(0)[1]["alpha"] == alpha1


class DropFirst(FaultInjector):
    """Drop the first outbound frame of each kind in ``kinds``."""

    def __init__(self, kinds):
        super().__init__(FaultConfig(), kinds=kinds)
        self._dropped = set()

    def plan(self, kind):
        if self.applies_to(kind) and kind not in self._dropped:
            self._dropped.add(kind)
            self.stats.planned += 1
            self.stats.dropped += 1
            return []
        return [0.0]


@pytest.mark.net
@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestNetStack:
    def test_two_pipelined_writes_with_lost_first_ack(self):
        """Same scenario over real sockets: two writes in flight, the
        first ack dropped, the retransmit replayed — both writes install
        exactly once and the returned alphas match the store."""

        async def scenario():
            server = NetObjectServer(
                propagation="none",
                fault_factory=lambda: DropFirst({messages.WRITE_ACK}),
            )
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, pipeline_depth=4,
                ) as client:
                    alphas = await asyncio.gather(
                        client.write("x", "v1"), client.write("y", "v2")
                    )
                    retries = client.stats.retries
                stored = {obj: server.engine.store[obj] for obj in ("x", "y")}
            finally:
                await server.close()
            return alphas, stored, retries, server

        (ax, ay), stored, retries, server = vtime.run(scenario())
        assert retries >= 1  # an ack really was lost
        assert server.engine.dedup_replays >= 1
        assert server.engine.writes_installed == 2, (
            "each unique write installs exactly once"
        )
        assert stored["x"].alpha == ax and stored["x"].value == "v1"
        assert stored["y"].alpha == ay and stored["y"].value == "v2"


class TestReplyCache:
    """The LRU itself: which reply a retransmission can still find."""

    def test_the_least_recently_used_reply_goes_first(self):
        cache = ReplyCache()
        for req in range(REPLY_CACHE_SIZE):
            cache.put((1, req), {"req": req})
        assert cache.get((1, 0)) == {"req": 0}  # now most recent
        cache.put((1, REPLY_CACHE_SIZE), {"req": REPLY_CACHE_SIZE})
        assert len(cache) == REPLY_CACHE_SIZE
        assert cache.get((1, 1)) is None
        assert cache.get((1, 0)) == {"req": 0}

    def test_putting_a_key_again_replaces_and_refreshes_it(self):
        cache = ReplyCache()
        cache.put((1, 0), {"v": "old"})
        for req in range(1, REPLY_CACHE_SIZE):
            cache.put((1, req), {})
        cache.put((1, 0), {"v": "new"})
        cache.put((2, 0), {})
        assert cache.get((1, 0)) == {"v": "new"}
        assert cache.get((1, 1)) is None

    def test_discard_forgets_a_reply_and_ignores_none(self):
        cache = ReplyCache()
        cache.put((3, 9), {})
        cache.discard(None)
        assert len(cache) == 1
        cache.discard((3, 9))
        assert cache.get((3, 9)) is None and len(cache) == 0
