"""The exactly-once request layer: dedup replay, pipelining, batching,
busy backpressure, and orphan-reply hygiene over the real TCP stack.

The regression at the heart of this file: a write whose ack is lost is
*retransmitted*, and before the server grew a reply cache the retransmit
re-executed — two installs, two effective times for one write, which is
exactly what Definition 1's ``T(w)`` forbids (and what corrupted merged
traces under loss).  Every test here drives real sockets, so the module
is marked ``net``; it also escalates ``DeprecationWarning`` to an error
so deprecated asyncio API usage in the ``repro.net`` stack (e.g.
``get_event_loop()`` inside a running loop) fails loudly.
"""

import asyncio
import math

import pytest

from repro.checkers import check_tsc
from repro.engine import messages
from repro.net.client import NetCacheClient, RequestTimeout
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.server import NetObjectServer
from repro.sim.trace import TraceRecorder, UniqueValueFactory
from repro.store import DurableStore
from repro.store.recovery import REC_WRITE
from repro.store.wal import replay as replay_wal

pytestmark = [
    pytest.mark.net,
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]


class DropFirst(FaultInjector):
    """Drop the first outbound frame of each kind in ``kinds``; deliver
    everything afterwards intact (deterministic single-loss injector)."""

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


class TestExactlyOnce:
    def test_retransmitted_write_installs_once_and_replays_alpha(self, tmp_path):
        """The tentpole regression: the server drops the first write-ack,
        the client retransmits under the same id, and the server must
        *replay* — one install, one WAL record, the original alpha."""

        async def scenario():
            recorder = TraceRecorder()
            server = NetObjectServer(
                propagation="none", recorder=recorder,
                fault_factory=lambda: DropFirst({messages.WRITE_ACK}),
                store=DurableStore(str(tmp_path), fsync="always"),
            )
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port,
                    request_timeout=0.1, max_retries=4,
                ) as client:
                    alpha = await client.write("x", "v1")
                    retries = client.stats.retries
                stored_alpha = server.store["x"].alpha
            finally:
                await server.close()
            return alpha, stored_alpha, retries, server, recorder

        alpha, stored_alpha, retries, server, recorder = asyncio.run(scenario())
        assert retries >= 1  # the ack really was lost
        assert server.dedup_replays >= 1  # ... and the retransmit replayed
        assert alpha == stored_alpha  # the replay carried the original alpha
        writes = [op for op in recorder.history(validate=False).operations
                  if op.is_write]
        assert len(writes) == 1, "a retransmitted write must install once"
        assert writes[0].time == alpha
        wal_writes = [r for r in replay_wal(str(tmp_path / "wal.log")).records
                      if r.get("k") == REC_WRITE]
        assert len(wal_writes) == 1, "one install => one WAL record"
        assert wal_writes[0]["t"] == alpha

    def test_duplicate_racing_its_original_parks_on_its_future(self):
        """A retransmit that arrives while the original is still
        executing must wait for that execution, not start a second."""

        async def scenario():
            server = NetObjectServer(propagation="none", latency=0.15)
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port,
                    request_timeout=0.05, max_retries=4,
                ) as client:
                    alpha = await client.write("x", "v1")
                    retries = client.stats.retries
                stored_alpha = server.store["x"].alpha
            finally:
                await server.close()
            return alpha, stored_alpha, retries, server

        alpha, stored_alpha, retries, server = asyncio.run(scenario())
        assert retries >= 1  # at least one retransmit raced the original
        assert server.dedup_replays >= 1
        assert server.requests == 1, "the write must execute exactly once"
        assert alpha == stored_alpha

    def test_reply_cache_is_bounded_lru(self):
        async def scenario():
            server = NetObjectServer(propagation="none", reply_cache_size=4)
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    for i in range(12):
                        await client.write("x", i)
                return len(server.replies)
            finally:
                await server.close()

        assert asyncio.run(scenario()) == 4


class TestBackpressure:
    def test_busy_sheds_unexecuted_and_client_reissues(self):
        async def scenario():
            server = NetObjectServer(
                propagation="none", latency=0.03, inflight_limit=1
            )
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, pipeline_depth=4
                ) as client:
                    alphas = await asyncio.gather(
                        *(client.write(f"o{i}", i) for i in range(4))
                    )
                    busy = client.stats.busy
            finally:
                await server.close()
            return alphas, busy, server

        alphas, busy, server = asyncio.run(scenario())
        assert len(set(alphas)) == 4  # every write landed, own alpha each
        assert server.busy_sent >= 3  # depth 4 against a 1-slot server
        assert busy == server.busy_sent  # every shed was honored, none lost
        # Shedding happens before execution: exactly 4 requests ran.
        assert server.requests == 4

    def test_depth_one_keeps_the_old_lockstep_behaviour(self):
        async def scenario():
            server = NetObjectServer(propagation="none", inflight_limit=1)
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, pipeline_depth=1
                ) as client:
                    for i in range(5):
                        await client.write("x", i)
                    return client.stats.busy
            finally:
                await server.close()

        assert asyncio.run(scenario()) == 0  # lockstep never trips the limit


class TestBatching:
    def test_write_many_is_one_frame_with_distinct_alphas(self):
        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    alphas = await client.write_many(
                        [("a", 1), ("b", 2), ("c", 3)]
                    )
                    # Rule 2 ran per ack, so Context sits at c's alpha —
                    # c is the one entry still inside its known lifetime.
                    value = await client.read("c")
                    hits = client.stats.fresh_hits
                    batched = client.stats.batched_writes
            finally:
                await server.close()
            return alphas, value, hits, batched, server

        alphas, value, hits, batched, server = asyncio.run(scenario())
        assert sorted(alphas) == alphas and len(set(alphas)) == 3, (
            "batched writes keep strictly increasing per-item install times"
        )
        assert server.batch_frames == 1 and server.batched_writes == 3
        assert batched == 3
        assert value == 3 and hits == 1  # acks installed into the cache

    def test_validate_many_mixes_still_valid_and_refresh(self):
        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port
                ) as writer, NetCacheClient(
                    1, server.host, server.port, delta=0.05
                ) as reader:
                    await writer.write_many([("a", "a0"), ("b", "b0")])
                    # Cold bulk fetch: a, b cached plus never-written c.
                    first = await reader.validate_many(["a", "b", "c"])
                    await writer.write("a", "a1")
                    await asyncio.sleep(0.12)  # age past reader's delta
                    second = await reader.validate_many(["a", "b", "c"])
                    stats = reader.stats
            finally:
                await server.close()
            return first, second, stats, server

        first, second, stats, server = asyncio.run(scenario())
        assert first == {"a": "a0", "b": "b0", "c": 0}
        assert second == {"a": "a1", "b": "b0", "c": 0}
        assert stats.fetches == 3  # the cold bulk round
        assert stats.refreshed == 1  # only a shipped a new version
        assert stats.revalidated == 2  # b and c answered still-valid
        assert server.batch_frames == 3  # one write-batch + two validates

    def test_coalesced_writes_share_frames_and_stay_timed(self):
        async def scenario():
            recorder = TraceRecorder()
            values = UniqueValueFactory()
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, recorder=recorder,
                    pipeline_depth=8, batch=4,
                ) as client:
                    await asyncio.gather(*(
                        client.write(f"x{i % 3}", values.next_value(0))
                        for i in range(16)
                    ))
                    for i in range(3):
                        await client.read(f"x{i}")
                    epsilon = client.epsilon_bound
                    stats = client.stats
            finally:
                await server.close()
            return recorder, epsilon, stats, server

        recorder, epsilon, stats, server = asyncio.run(scenario())
        assert stats.batched_writes == 16  # every write coalesced
        assert server.batched_writes == 16
        assert server.batch_frames >= 4  # frames of at most `batch` items
        result = check_tsc(recorder.history(), math.inf, epsilon)
        assert result.satisfied, result.violation

    def test_pinned_request_ids_bypass_coalescing(self):
        """A pinned write (the ring repair path) cannot ride a batch
        frame — the frame has one id for many writes."""

        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, batch=4
                ) as client:
                    req = client.next_request_id()
                    alpha = await client.write("x", "v", req=req)
                    replay = await client.write("x", "v2", req=req)
                    batched = client.stats.batched_writes
            finally:
                await server.close()
            return alpha, replay, batched, server

        alpha, replay, batched, server = asyncio.run(scenario())
        assert batched == 0
        # Same id => the second call replayed the first reply: the
        # original alpha, and v2 was never installed.
        assert replay == alpha
        assert server.store["x"].value == "v"
        assert server.dedup_replays == 1


class TestOrphanReplies:
    def test_late_reply_is_dropped_without_noise(self, recwarn):
        """A reply that outlives its request (client gave up) must be
        ignored: ids are never reused, so it cannot resolve a later
        request's future, and it must not warn or wedge the loop."""

        async def scenario():
            server = NetObjectServer(propagation="none", latency=0.2)
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port,
                    request_timeout=0.05, max_retries=0,
                ) as client:
                    with pytest.raises(RequestTimeout):
                        await client.write("x", "v0")
                    server.latency = 0.0
                    # Let the orphan write-ack arrive and be dropped.
                    await asyncio.sleep(0.3)
                    value = await client.read("x")
                    pending = dict(client._pending)
            finally:
                await server.close()
            return value, pending

        value, pending = asyncio.run(scenario())
        # The timed-out write still executed server-side (at-most-once
        # would need the id to be retransmitted to dedup) — the fresh
        # read observes it, proving the later request resolved with its
        # *own* reply, not the orphan.
        assert value == "v0"
        assert pending == {}  # no future leaked for the orphan
        assert not recwarn.list

    def test_resync_over_a_live_pipelined_connection(self):
        """sync-ack now echoes the request id, so resync() can match its
        replies even while other requests are in flight."""

        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    before = client.clock.estimator.error_bound
                    writes = asyncio.gather(
                        *(client.write(f"k{i}", i) for i in range(4))
                    )
                    await asyncio.wait_for(client.resync(rounds=3), timeout=5.0)
                    await writes
                    return before, client.clock.estimator.error_bound
            finally:
                await server.close()

        before, after = asyncio.run(scenario())
        assert math.isfinite(after)
        assert after <= before  # more samples can only tighten the bound
