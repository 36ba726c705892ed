"""Handoff resilience: bounded retry and its ``HandoffReport``
accounting.

A ``FlakyTransport`` wraps the in-memory one and fails a configurable
number of times per (device, obj) before letting the call through —
transient faults the retry loop must absorb.  ``KeyError`` stays a
definitive answer ("never stored") and must *not* burn retry budget.
"""

import pytest

from repro.ring import MemoryTransport, Rebalancer, replay_handoff
from repro.ring.ring import RingBuilder
from repro.sim import vtime


def run(coro):
    return vtime.run(coro)


class FlakyTransport:
    """Delegate to a MemoryTransport after ``fail_first`` transient
    failures per call site; ``always_down`` devices never recover."""

    def __init__(self, inner, fail_first=0, always_down=()):
        self.inner = inner
        self.fail_first = fail_first
        self.always_down = set(always_down)
        self.failures = {}
        self.calls = 0

    def _maybe_fail(self, kind, device, obj):
        self.calls += 1
        if device in self.always_down:
            raise ConnectionError(f"device {device} is down")
        key = (kind, device, obj)
        seen = self.failures.get(key, 0)
        if seen < self.fail_first:
            self.failures[key] = seen + 1
            raise ConnectionError(f"transient fault #{seen + 1} on {key}")

    async def read(self, device_id, obj):
        self._maybe_fail("read", device_id, obj)
        return await self.inner.read(device_id, obj)

    async def write(self, device_id, obj, value):
        self._maybe_fail("write", device_id, obj)
        return await self.inner.write(device_id, obj, value)


def grown_ring(n=3, part_power=6, replicas=2):
    builder = RingBuilder(part_power=part_power, replicas=replicas)
    for i in range(n):
        builder.add_device(i)
    rebalancer = Rebalancer(builder)
    return rebalancer, rebalancer.ring


async def seed(transport, ring, objects):
    for obj in objects:
        for dev in ring.replicas_for(obj):
            await transport.write(dev, obj, f"{obj}.v1")


class TestRetry:
    def test_transient_failures_are_absorbed_and_counted(self):
        rebalancer, old_ring = grown_ring()
        memory = MemoryTransport([0, 1, 2, 3])
        flaky = FlakyTransport(memory, fail_first=2)
        objects = [f"o{i}" for i in range(12)]

        async def scenario():
            await seed(memory, old_ring, objects)
            _, moves = rebalancer.add_device(3)
            return moves, await replay_handoff(
                moves, objects, old_ring, flaky, retries=3,
            )

        moves, report = run(scenario())
        assert report.objects_missing == 0
        assert report.objects_copied > 0
        # Every copy needed 2 read retries and 2 write retries.
        assert report.retries == 4 * report.objects_copied

    def test_retry_budget_exhaustion_counts_missing(self):
        rebalancer, old_ring = grown_ring()
        memory = MemoryTransport([0, 1, 2, 3])
        flaky = FlakyTransport(memory, always_down=(0, 1, 2))
        objects = [f"o{i}" for i in range(6)]

        async def scenario():
            await seed(memory, old_ring, objects)
            _, moves = rebalancer.add_device(3)
            return await replay_handoff(
                moves, objects, old_ring, flaky, retries=2,
            )

        report = run(scenario())
        assert report.objects_copied == 0
        assert report.objects_missing > 0
        # Each miss burned the whole budget.
        assert report.retries == 2 * report.objects_missing

    def test_never_stored_is_definitive_no_retries(self):
        rebalancer, old_ring = grown_ring()
        memory = MemoryTransport([0, 1, 2, 3])

        async def scenario():
            _, moves = rebalancer.add_device(3)
            return await replay_handoff(
                moves, ["never-written"], old_ring, memory,
                retries=5,  # would take seconds if retried
            )

        report = run(scenario())
        assert report.objects_copied == 0
        assert report.retries == 0  # KeyError propagates immediately

    def test_write_failure_after_successful_read_raises(self):
        rebalancer, old_ring = grown_ring()
        memory = MemoryTransport([0, 1, 2, 3])

        async def scenario():
            _, moves = rebalancer.add_device(3)
            moved = {m.partition for m in moves}
            # Pick an object whose partition actually moved to the joiner.
            obj = next(
                f"o{i}" for i in range(1000)
                if old_ring.partition_for(f"o{i}") in moved
            )
            await seed(memory, old_ring, [obj])
            memory.down.add(3)  # the destination, not the source
            return await replay_handoff(moves, [obj], old_ring, memory, retries=1)

        # A destination that stays down is not a per-object miss — the
        # whole handoff must fail loudly rather than cut over silently.
        with pytest.raises(ConnectionError):
            run(scenario())
