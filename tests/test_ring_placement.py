"""Replicated placement: W-of-N writes, fallback reads and anti-entropy
— all over the in-memory transport (the timed cases in virtual time)."""

import asyncio

import pytest

from repro.ring import (
    MemoryTransport,
    PlacementError,
    ReplicatedPlacement,
)
from repro.ring.placement import MAX_REPAIR_ATTEMPTS
from repro.ring.ring import uniform_ring
from repro.sim import vtime


def run(coro):
    return asyncio.run(coro)


def make_placement(n=3, replicas=2, part_power=5, **kwargs):
    ring = uniform_ring(n, part_power=part_power, replicas=replicas)
    transport = MemoryTransport(ring.device_ids())
    return ring, transport, ReplicatedPlacement(ring, transport, **kwargs)


class TestWrites:
    def test_write_reaches_every_replica(self):
        ring, transport, placement = make_placement()

        async def scenario():
            outcome = await placement.write("obj", "v1")
            await placement.drain()
            return outcome

        outcome = run(scenario())
        replicas = ring.replicas_for("obj")
        assert sorted(outcome.acked) == sorted(replicas)
        assert len(outcome.acked) >= outcome.quorum
        for dev in replicas:
            assert transport.stores[dev]["obj"][0] == "v1"

    def test_alpha_is_the_primary_install_time(self):
        ring, transport, placement = make_placement()

        async def scenario():
            outcome = await placement.write("obj", "v1")
            await placement.drain()
            return outcome

        outcome = run(scenario())
        primary = ring.primary_for("obj")
        assert outcome.alpha == transport.stores[primary]["obj"][1]

    def test_quorum_is_every_replica_unless_capped(self):
        _, _, placement = make_placement()
        assert placement.quorum_for(3) == 3
        _, _, placement = make_placement(write_quorum=2)
        assert [placement.quorum_for(n) for n in (1, 2, 3)] == [1, 2, 2]

    def test_quorum_one_returns_before_slow_replica(self):
        ring, transport, placement = make_placement(write_quorum=1)
        replica = ring.replicas_for("obj")[1]
        transport.write_delay[replica] = 0.1

        async def scenario():
            loop = asyncio.get_event_loop()
            started = loop.time()
            await placement.write("obj", "v1")
            quick = loop.time() - started
            assert replica not in transport.stores or \
                "obj" not in transport.stores[replica]
            await placement.drain()  # straggler lands eventually
            return quick

        quick = run(scenario())
        assert quick < 0.1
        assert transport.stores[replica]["obj"][0] == "v1"
        assert placement.stats.replica_acks == 1

    def test_primary_failure_is_fatal(self):
        ring, transport, placement = make_placement()
        transport.down.add(ring.primary_for("obj"))
        with pytest.raises(PlacementError, match="primary"):
            run(placement.write("obj", "v1"))

    def test_the_first_acks_make_the_quorum_not_the_device_order(self):
        """N = 3, W = 2, the first replica slow: the write returns on the
        second replica's ack.  Awaiting the copies in device order would
        wait for the slow one."""
        ring, transport, placement = make_placement(
            n=3, replicas=3, write_quorum=2
        )
        devices = ring.replicas_for("obj")
        transport.write_delay[devices[1]] = 0.1

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            outcome = await placement.write("obj", "v1")
            took = loop.time() - started
            await placement.drain()
            return outcome, took

        outcome, took = vtime.run(scenario())
        assert took < 0.1
        assert sorted(outcome.acked) == sorted([devices[0], devices[2]])
        assert len(outcome.acked) >= outcome.quorum
        assert placement.stats.replica_acks == 2  # the straggler's, late

    def test_a_lost_primary_raises_without_waiting_for_the_replicas(self):
        ring, transport, placement = make_placement()
        primary, replica = ring.replicas_for("obj")
        transport.down.add(primary)
        transport.write_delay[replica] = 0.1

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(PlacementError, match="lost its primary"):
                await placement.write("obj", "v1")
            took = loop.time() - started
            await placement.drain()
            return took

        assert vtime.run(scenario()) < 0.1
        # The replica's copy ran on and its late ack was counted.
        assert transport.stores[replica]["obj"][0] == "v1"
        assert placement.stats.replica_acks == 1

    def test_a_stragglers_late_failure_still_queues_a_repair(self):
        ring, transport, placement = make_placement(write_quorum=1, delta=0.5)
        replica = ring.replicas_for("obj")[1]
        transport.down.add(replica)
        transport.write_delay[replica] = 0.1

        async def scenario():
            await placement.write("obj", "v1")
            queued = len(placement.repairs)
            await placement.drain()
            return queued

        assert vtime.run(scenario()) == 0  # not yet: the copy was in flight
        [task] = placement.repairs
        assert (task.device, task.obj, task.value) == (replica, "obj", "v1")
        assert placement.stats.replica_acks == 0

    def test_replica_failure_queues_repair(self):
        ring, transport, placement = make_placement(delta=0.5)
        replica = ring.replicas_for("obj")[1]
        transport.down.add(replica)

        async def scenario():
            outcome = await placement.write("obj", "v1")
            await placement.drain()
            return outcome

        outcome = run(scenario())
        assert len(outcome.acked) < outcome.quorum or replica in outcome.failed
        [task] = placement.repairs
        assert (task.device, task.obj, task.value) == (replica, "obj", "v1")
        assert task.deadline == pytest.approx(task.created + 0.5)


class TestReads:
    def test_read_prefers_primary(self):
        ring, transport, placement = make_placement()

        async def scenario():
            await placement.write("obj", "v1")
            await placement.drain()
            return await placement.read("obj")

        outcome = run(scenario())
        assert outcome.device == ring.primary_for("obj")
        assert outcome.value == "v1"
        assert outcome.fallbacks == 0

    def test_fallback_to_replica_when_primary_down(self):
        ring, transport, placement = make_placement()

        async def scenario():
            await placement.write("obj", "v1")
            await placement.drain()
            transport.down.add(ring.primary_for("obj"))
            return await placement.read("obj")

        outcome = run(scenario())
        assert outcome.device == ring.replicas_for("obj")[1]
        assert outcome.fallbacks == 1
        assert placement.stats.fallback_reads == 1

    def test_all_replicas_down_raises(self):
        ring, transport, placement = make_placement()
        transport.down.update(ring.replicas_for("obj"))
        with pytest.raises(PlacementError, match="every replica"):
            run(placement.read("obj"))


class TestAntiEntropy:
    def test_repair_completes_once_device_recovers(self):
        ring, transport, placement = make_placement(delta=5.0)
        replica = ring.replicas_for("obj")[1]

        async def scenario():
            transport.down.add(replica)
            await placement.write("obj", "v1")
            await placement.drain()
            assert await placement.repair_once() == 0  # still down
            transport.down.discard(replica)
            assert await placement.repair_once() == 1

        run(scenario())
        assert transport.stores[replica]["obj"][0] == "v1"
        assert placement.stats.repairs_done == 1
        assert placement.stats.repairs_late == 0
        assert not placement.repairs

    def test_repair_past_deadline_counts_late(self):
        now = [0.0]
        ring = uniform_ring(3, part_power=5, replicas=2)
        transport = MemoryTransport(ring.device_ids(), clock=lambda: now[0])
        placement = ReplicatedPlacement(
            ring, transport, delta=0.2, clock=lambda: now[0]
        )
        replica = ring.replicas_for("obj")[1]

        async def scenario():
            transport.down.add(replica)
            await placement.write("obj", "v1")
            await placement.drain()
            now[0] = 1.0  # well past created + delta
            transport.down.discard(replica)
            await placement.repair_once()

        run(scenario())
        assert placement.stats.repairs_done == 1
        assert placement.stats.repairs_late == 1

    def test_newer_value_supersedes_queued_repair(self):
        ring, transport, placement = make_placement(delta=5.0)
        replica = ring.replicas_for("obj")[1]

        async def scenario():
            transport.down.add(replica)
            await placement.write("obj", "v1")
            await placement.write("obj", "v2")
            await placement.drain()
            assert len(placement.repairs) == 1
            transport.down.discard(replica)
            await placement.repair_once()

        run(scenario())
        assert transport.stores[replica]["obj"][0] == "v2"

    def test_repair_gives_up_after_max_attempts(self):
        ring, transport, placement = make_placement(delta=5.0)
        replica = ring.replicas_for("obj")[1]

        async def scenario():
            transport.down.add(replica)
            await placement.write("obj", "v1")
            await placement.drain()
            for _ in range(MAX_REPAIR_ATTEMPTS - 1):
                await placement.repair_once()
            still_queued = len(placement.repairs)
            await placement.repair_once()
            return still_queued

        assert run(scenario()) == 1  # one round short: still trying
        assert not placement.repairs
        assert placement.stats.repairs_done == 0
