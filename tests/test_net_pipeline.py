"""The exactly-once request layer: dedup replay, pipelining, bulk
validation, and orphan-reply hygiene over the real TCP stack.

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
import errno
import itertools
import json
import math
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import threading
import tracemalloc

import pytest

import repro

from repro.checkers import check_tsc
from repro.core.operations import read
from repro.engine import ServerEngine, messages
from repro.engine.reply_cache import REPLY_CACHE_SIZE
from repro.net.client import (
    BACKOFF, MAX_RETRIES, REQUEST_TIMEOUT, NetCacheClient, ProtocolError,
    RequestTimeout,
)
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import (
    HELLO, HELLO_ACK, FrameConnection, FrameError, decode_frame, dial,
    encode_frame,
)
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.ring import uniform_ring
from repro.sim import vtime
from repro.sim.trace import TraceRecorder, UniqueValueFactory
from repro.store import DurableStore
from repro.store.recovery import REC_WRITE
from repro.store.wal import FSYNC_INTERVAL, replay as replay_wal

pytestmark = [
    pytest.mark.net,
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]


class DropFirst(FaultInjector):
    """Drop the first ``times`` outbound frames of each kind in ``kinds``;
    deliver everything afterwards intact (deterministic loss injector)."""

    def __init__(self, kinds, times=1):
        super().__init__(FaultConfig(), kinds=kinds)
        self._dropped = {}
        self.times = times

    def plan(self, kind):
        if self.applies_to(kind) and self._dropped.get(kind, 0) < self.times:
            self._dropped[kind] = self._dropped.get(kind, 0) + 1
            self.stats.planned += 1
            self.stats.dropped += 1
            return []
        return [0.0]


def late(kind, by):
    """Every outbound ``kind`` frame is written ``by`` seconds late."""
    return lambda: FaultInjector(FaultConfig(delay=by), kinds={kind})


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
                async with NetCacheClient(0, server.host, server.port) as client:
                    alpha = await client.write("x", "v1")
                    retries = client.stats.retries
                stored_alpha = server.engine.store["x"].alpha
            finally:
                await server.close()
            return alpha, stored_alpha, retries, server, recorder

        alpha, stored_alpha, retries, server, recorder = vtime.run(scenario())
        assert retries >= 1  # the ack really was lost
        assert server.engine.dedup_replays >= 1  # ... and the retransmit replayed
        assert alpha == stored_alpha  # the replay carried the original alpha
        writes = [op for op in recorder.history(validate=False).operations
                  if op.is_write]
        assert len(writes) == 1, "a retransmitted write must install once"
        assert writes[0].time == alpha
        wal_writes = [r for r in replay_wal(str(tmp_path / "wal.log")).records
                      if r.get("k") == REC_WRITE]
        assert len(wal_writes) == 1, "one install => one WAL record"
        assert wal_writes[0]["t"] == alpha

    def test_a_write_whose_log_append_failed_is_never_acknowledged(self, tmp_path):
        """Log-before-ack, on the retransmit too.  The engine caches the
        ack as it executes; when the WAL append then fails (a full disk),
        the request is answered ``error`` and its cache entry dropped —
        a replay would acknowledge a write that is in no log."""

        async def scenario():
            store = DurableStore(str(tmp_path), fsync="always")
            log_write, logged = store.log_write, []

            def log_write_failing_once(version):
                logged.append(version.value)
                if len(logged) == 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                log_write(version)

            store.log_write = log_write_failing_once
            server = await NetObjectServer(propagation="none", store=store).start()
            acked = {}
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    req = client.link.channel.next_id()
                    with pytest.raises(ProtocolError, match="No space left"):
                        await client.write("x", "v1", req=req)
                    retries = client.stats.retries
                    await client.write("x", "v2", req=req)
                    acked["x"] = "v2"
                    await client.write("y", "v3")
                    acked["y"] = "v3"
            finally:
                await server.abort()  # a crash: what is on disk is what was logged
            return retries, logged, acked, server.engine.dedup_replays

        retries, logged, acked, replays = vtime.run(scenario())
        assert retries == 0  # told at once, not after a retransmit ladder
        # The second write under the same id was executed, not replayed.
        assert logged == ["v1", "v2", "v3"] and replays == 0
        store = DurableStore(str(tmp_path))
        recovered = store.open().objects
        store.close()
        assert {obj: version.value for obj, version in recovered.items()} == acked

    def test_a_retransmit_whose_ack_is_late_is_replayed(self):
        """The ack is on its way, only slower than the client's timeout:
        every retransmit reaches a server that has already executed the
        write, and is answered from the reply cache."""

        async def scenario():
            server = NetObjectServer(
                propagation="none",
                fault_factory=late(messages.WRITE_ACK, 1.5 * REQUEST_TIMEOUT),
            )
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    alpha = await client.write("x", "v1")
                    retries = client.stats.retries
                stored_alpha = server.engine.store["x"].alpha
            finally:
                await server.close()
            return alpha, stored_alpha, retries, server

        alpha, stored_alpha, retries, server = vtime.run(scenario())
        assert retries >= 1  # the client did give up waiting, at least once
        assert server.engine.dedup_replays >= 1
        assert server.engine.requests == 1, "the write must execute exactly once"
        assert alpha == stored_alpha

    def test_reply_cache_is_bounded_lru(self):
        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    first = client.link.channel.next_id()
                    await client.write("x", -1, req=first)
                    for i in range(REPLY_CACHE_SIZE + 8):
                        await client.write("x", i)
                    last = client.link.channel.next_id() - 1
                return server.engine.replies, (0, first), (0, last)
            finally:
                await server.close()

        replies, first, last = vtime.run(scenario())
        assert len(replies) == REPLY_CACHE_SIZE
        assert replies.get(first) is None  # the oldest went first
        assert replies.get(last) is not None


class TestBatching:
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
                    await writer.write("a", "a0")
                    await writer.write("b", "b0")
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
        assert server.engine.batch_frames == 2  # the two validate-batches

    def test_concurrent_pipelined_writes_stay_timed(self):
        """Sixteen writes in flight at once travel as sixteen ``write``
        frames over the one connection: one request each, each with its
        own install stamp, and the trace stays timed."""

        async def scenario():
            recorder = TraceRecorder()
            values = UniqueValueFactory()
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, recorder=recorder,
                    pipeline_depth=8,
                ) as client:
                    before = server.engine.requests
                    alphas = await asyncio.gather(*(
                        client.write(f"x{i % 3}", values.next_value(0))
                        for i in range(16)
                    ))
                    requests = server.engine.requests - before
                    for i in range(3):
                        await client.read(f"x{i}")
                    epsilon = client.epsilon_bound
            finally:
                await server.close()
            return recorder, epsilon, alphas, requests

        recorder, epsilon, alphas, requests = asyncio.run(scenario())
        assert len(set(alphas)) == 16
        assert requests == 16
        result = check_tsc(recorder.history(), math.inf, epsilon)
        assert result.satisfied, result.violation

    def test_pinned_request_id_replays_the_first_write(self):
        """A second write under a pinned id (the ring repair path) is a
        retransmission: the server replays the first reply and installs
        nothing."""

        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    req = client.link.channel.next_id()
                    alpha = await client.write("x", "v", req=req)
                    replay = await client.write("x", "v2", req=req)
            finally:
                await server.close()
            return alpha, replay, server

        alpha, replay, server = asyncio.run(scenario())
        # Same id => the second call replayed the first reply: the
        # original alpha, and v2 was never installed.
        assert replay == alpha
        assert server.engine.store["x"].value == "v"
        assert server.engine.writes_installed == 1
        assert server.engine.dedup_replays == 1


class TestOneWritePath:
    """A write travels as a ``write`` frame, pipelined and group-committed,
    and no other way.  The old ``write-batch`` frame installed its items
    one by one before reading the next: a malformed second item left the
    first installed and visible to readers, answered ``error`` and
    absent from the WAL — a write no one acknowledged, lost in a crash."""

    def test_a_write_batch_frame_is_refused_and_installs_nothing(self, tmp_path):
        async def scenario():
            server = await NetObjectServer(
                propagation="none",
                store=DurableStore(str(tmp_path), fsync="always"),
            ).start()
            try:
                conn = await dial(server.host, server.port)
                await conn.send({"kind": HELLO, "client_id": 1})
                assert (await conn.recv())["kind"] == HELLO_ACK
                before = dict(server.engine.store)
                replies = []
                for req, writes in enumerate([
                    [{"obj": "a", "value": 1}, {"obj": "b", "value": 2}],
                    [{"obj": "a", "value": 1}, {"obj": "b"}],  # no "value"
                ]):
                    await conn.send({"kind": "write-batch", "writes": writes,
                                     "req": req})
                    replies.append(await asyncio.wait_for(conn.recv(), 1.0))
                after = dict(server.engine.store)
                installed = server.engine.writes_installed
                logged = replay_wal(str(tmp_path / "wal.log")).records
                await conn.send({"kind": "write", "obj": "a", "value": 3,
                                 "req": 2})
                ack = await asyncio.wait_for(conn.recv(), 1.0)
                await conn.close()
            finally:
                await server.close()
            return replies, before, after, installed, logged, ack

        replies, before, after, installed, logged, ack = asyncio.run(scenario())
        assert [(r["kind"], r["req"]) for r in replies] == [
            ("error", 0), ("error", 1),
        ]
        assert after == before and installed == 0
        assert [r for r in logged if r.get("k") == REC_WRITE] == []
        assert (ack["kind"], ack["req"], ack["obj"]) == ("write-ack", 2, "a")
        wal = replay_wal(str(tmp_path / "wal.log")).records
        assert [r["value"] for r in wal if r.get("k") == REC_WRITE] == [3]

    def test_the_engine_answers_write_batch_as_an_unknown_kind(self):
        engine = ServerEngine(lambda: 0.0)
        frame = {"kind": "write-batch", "writes": [{"obj": "a", "value": 1}],
                 "req": 0}
        result = engine.execute(1, frame)
        assert result.reply == {
            "kind": "error", "error": "unknown message kind 'write-batch'",
            "req": 0,
        }
        assert not result.wal and not result.installed
        assert engine.replay(engine.dedup_key(1, frame)) is None
        assert len(engine.replies) == 0 and engine.writes_installed == 0


class TestOrphanReplies:
    def test_late_reply_is_dropped_without_noise(self, recwarn):
        """A reply that outlives its request (client gave up) must be
        ignored: ids are never reused, so it cannot resolve a later
        request's future, and it must not warn or wedge the loop."""

        # The whole retransmit ladder: the last attempt waits longest.
        ladder = sum(REQUEST_TIMEOUT * BACKOFF ** i for i in range(MAX_RETRIES + 1))

        async def scenario():
            server = NetObjectServer(
                propagation="none",
                fault_factory=late(messages.WRITE_ACK, ladder + 1.0),
            )
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as client:
                    with pytest.raises(RequestTimeout):
                        await client.write("x", "v0")
                    # Let every orphan write-ack arrive and be dropped.
                    await asyncio.sleep(ladder + 2.0)
                    value = await client.read("x")
                    pending = dict(client.link.channel.pending)
            finally:
                await server.close()
            return value, pending

        value, pending = vtime.run(scenario())
        # The timed-out write still executed server-side (at-most-once
        # would need the id to be retransmitted to dedup) — the fresh
        # read observes it, proving the later request resolved with its
        # *own* reply, not the orphan.
        assert value == "v0"
        assert pending == {}  # no future leaked for the orphan
        assert not recwarn.list


class LoopIterations:
    """Counts event-loop iterations: a callback that reschedules itself
    with ``call_soon`` runs exactly once in each."""

    def __init__(self, loop):
        self.count = 0
        self._loop = loop
        self._running = True
        loop.call_soon(self._tick)

    def _tick(self):
        self.count += 1
        if self._running:
            self._loop.call_soon(self._tick)

    def stop(self):
        self._running = False


def call_counts(rounds=300):
    """Python calls into ``src/repro`` per operation, server side
    included: the median over ``rounds`` operations of the
    ``sys.setprofile`` call events (a coroutine's resumption is one).
    Five operations: the single-server validate read (delta 0, so every
    read is a validation); with a recorder attached and delta infinite,
    the single-server cache hit and write (``read_cached``'s and
    ``write_durable``'s paths, storeless); and the routed read and the
    routed write over ``uniform_ring(2, part_power=4, replicas=2)`` at
    delta 0.  A count, not a time: it repeats exactly, so a wrapper more
    shows without a bench run (CI prints these into the step summary)."""
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    async def median(operation):
        costs = []
        for _ in range(rounds):
            before = calls
            sys.setprofile(profile)
            try:
                await operation()
            finally:
                sys.setprofile(None)
            costs.append(calls - before)
        return sorted(costs)[rounds // 2]

    async def scenario():
        counts = {}
        server = await NetObjectServer(propagation="none").start()
        try:
            async with NetCacheClient(
                0, server.host, server.port, delta=0.0
            ) as client:
                await client.write("x", "v")
                counts["validate_read"] = await median(lambda: client.read("x"))
            async with NetCacheClient(
                1, server.host, server.port, recorder=TraceRecorder()
            ) as client:
                await client.read("x")
                counts["hit_read"] = await median(lambda: client.read("x"))
                values = itertools.count()
                counts["write"] = await median(
                    lambda: client.write("y", next(values)))
        finally:
            await server.close()
        servers = [await NetObjectServer(propagation="none").start()
                   for _ in range(2)]
        ring = uniform_ring(2, part_power=4, replicas=2)
        endpoints = {dev: (s.host, s.port) for dev, s in enumerate(servers)}
        try:
            async with RingRouter(0, ring, endpoints, delta=0.0) as router:
                await router.write("x", "v")
                values = itertools.count()
                counts["routed_read"] = await median(lambda: router.read("x"))
                counts["routed_write"] = await median(
                    lambda: router.write("y", next(values)))
        finally:
            for server in servers:
                await server.close()
        return counts

    return asyncio.run(scenario())


def import_footprint():
    """What a fresh interpreter holds once it has imported the live stack
    and the checkers (``repro.net.ring_router``, ``repro.checkers``, as
    ``benchmarks/layers`` does): its resident set in MiB (``None``
    without ``/proc``) and whether numpy came with them."""
    code = (
        "import json, sys, repro.net.ring_router, repro.checkers\n"
        "rss = None\n"
        "try:\n"
        "    with open('/proc/self/status', encoding='ascii') as fh:\n"
        "        rss = next(int(line.split()[1]) / 1024.0 for line in fh\n"
        "                   if line.startswith('VmRSS:'))\n"
        "except OSError:\n"
        "    pass\n"
        "print(json.dumps({'rss_mb': rss, 'numpy': 'numpy' in sys.modules}))\n"
    )
    src = pathlib.Path(repro.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def receive_peak_bytes(reads=300):
    """The transient memory of the receive path: ``tracemalloc``'s peak
    minus what is still held after ``reads`` validate reads (delta 0) by
    a warm client of a live loopback server.  A socket read into a fresh
    256 KiB ``bytes`` shows here as a quarter of a mebibyte; the socket
    receiving into its connection's own buffer, as next to nothing (CI
    prints it into the step summary)."""

    async def scenario():
        server = await NetObjectServer(propagation="none").start()
        try:
            async with NetCacheClient(
                0, server.host, server.port, delta=0.0
            ) as client:
                await client.write("x", "v")
                await client.read("x")
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    for _ in range(reads):
                        await client.read("x")
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        finally:
            await server.close()
        return peak - current

    return asyncio.run(scenario())


def recorded_read_bytes():
    """``sys.getsizeof`` of one read as a trace keeps it: what every
    recorded operation costs a run, before its fields' own objects."""
    return sys.getsizeof(TraceRecorder().record_read(0, "x", "v", 1.0))


async def raw_peer(server, client_id, subscribe=False):
    """A hand-driven connection past the handshake."""
    conn = await dial(server.host, server.port)
    await conn.send({"kind": HELLO, "client_id": client_id, "subscribe": subscribe})
    assert (await conn.recv())["kind"] == HELLO_ACK
    return conn


class TestWirePath:
    """What one round trip costs in event-loop iterations, and what
    serving requests in place must not cost anybody else (ROADMAP 1(a))."""

    ROUNDS = 500
    #: client sends | server reads, serves and replies from
    #: ``buffer_updated`` | client reads, wakes the caller.
    BUDGET = 3
    #: What a round trip cost with streams, ``wait_for(shield(...))``, a
    #: task per request frame and a receive task: 8 (7 on Python 3.12+).
    OLD_COST = 7

    #: Python calls per operation (``call_counts``), pinned at what the
    #: compiled codec, one-call clock readings, the leaner server and
    #: routed paths and a plain ``Channel.connected`` flag reach; before
    #: them: 73 / 94 / 141 for the validate read and the routed read and
    #: write.
    CALLS = {
        "validate_read": 54, "hit_read": 11, "write": 56,
        "routed_read": 63, "routed_write": 106,
    }

    def test_an_operation_makes_no_more_python_calls_than_pinned(self):
        """Fails when a wrapper, a clock indirection or a second codec
        path comes back onto the path of a frame or an operation."""
        counts = call_counts()
        assert set(counts) == set(self.CALLS)
        for kind, pinned in self.CALLS.items():
            assert counts[kind] <= pinned, (kind, counts[kind], pinned)

    def test_the_receive_path_allocates_no_read_sized_buffer(self):
        """Fails when a socket read allocates its own buffer again, as
        asyncio does for a plain ``Protocol`` (256 KiB per read)."""
        assert receive_peak_bytes() < 64 * 1024

    def test_a_recorded_read_has_no_counter_field(self):
        """A recorded operation is its eight fields and the object's
        headers, 96 bytes (a run keeps every one): identity is its hash,
        and a tie is broken by position."""
        assert recorded_read_bytes() <= 96
        assert not hasattr(read(0, "x", "v", 1.0), "uid")

    def test_the_live_stack_and_the_checkers_import_no_numpy(self):
        """No module of the package imports numpy: the constraint
        engine's reachability matrix is int bitsets, so a process that
        may check a trace (every timed one) does not carry it."""
        assert import_footprint()["numpy"] is False

    def test_a_round_trip_is_three_loop_iterations(self):
        """Fails if the server's handler task takes requests from a
        queue again, or ``wait_for``/``shield``, a task per request frame
        or a client receive task comes back: each is one more trip
        through the loop between a frame arriving and its caller
        resuming."""

        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, delta=0.0
                ) as client:
                    await client.write("x", "v")
                    iterations = LoopIterations(asyncio.get_running_loop())
                    await asyncio.sleep(0)
                    reads, writes = [], []
                    for _ in range(self.ROUNDS):
                        before = iterations.count
                        assert await client.read("x") == "v"
                        reads.append(iterations.count - before)
                    for i in range(self.ROUNDS):
                        before = iterations.count
                        await client.write("y", i)
                        writes.append(iterations.count - before)
                    iterations.stop()
                    return reads, writes, client.stats
            finally:
                await server.close()

        reads, writes, stats = asyncio.run(scenario())
        assert stats.validations == self.ROUNDS  # delta 0: every read went out
        assert stats.retries == 0
        for costs in (reads, writes):
            # The count is exact when each loopback segment is readable
            # by the next select(); on a loaded machine some are not,
            # and those extra iterations are the kernel's.  The median
            # does not forgive a design that needs a fifth iteration;
            # the mean only has to stay under what the old path cost.
            assert sorted(costs)[self.ROUNDS // 2] <= self.BUDGET
            assert sum(costs) < self.OLD_COST * self.ROUNDS

    def test_a_routed_write_costs_what_a_routed_read_does(self):
        """Over a two-server ring a write is two copies, yet it takes the
        read's three iterations and starts no task: the replica's copy
        leaves first and its ack resolves a future where it lands, the
        primary's is awaited in place.  A task per copy joined by
        ``asyncio.wait`` took six iterations and two tasks."""
        rounds = 300

        async def scenario():
            servers = [await NetObjectServer(propagation="none").start()
                       for _ in range(2)]
            ring = uniform_ring(2, part_power=4, replicas=2)
            endpoints = {dev: (s.host, s.port) for dev, s in enumerate(servers)}
            try:
                async with RingRouter(0, ring, endpoints, delta=0.0) as router:
                    await router.write("x", "v")
                    loop = asyncio.get_running_loop()
                    tasks = []
                    loop.set_task_factory(
                        lambda loop, coro, **kw: tasks.append(coro)
                        or asyncio.Task(coro, loop=loop, **kw)
                    )
                    iterations = LoopIterations(loop)
                    await asyncio.sleep(0)
                    writes, reads = [], []
                    for i in range(rounds):
                        before = iterations.count
                        await router.write("y", i)
                        writes.append(iterations.count - before)
                    started_by_writes = len(tasks)
                    for _ in range(rounds):
                        before = iterations.count
                        assert await router.read("x") == "v"
                        reads.append(iterations.count - before)
                    iterations.stop()
                    loop.set_task_factory(None)
                    return writes, reads, started_by_writes, router.placement.stats
            finally:
                for server in servers:
                    await server.close()

        writes, reads, tasks, stats = asyncio.run(scenario())
        assert stats.replica_acks == rounds + 1 and stats.quorum_failures == 0
        assert tasks == 0
        median = sorted(writes)[rounds // 2]
        assert median <= self.BUDGET
        assert median == sorted(reads)[rounds // 2]

    def test_a_burst_is_answered_in_arrival_order(self):
        """Eight requests in one segment are served in place, one after
        the other: the replies come back in request order."""

        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            try:
                conn = await raw_peer(server, 7)
                burst = [
                    {"kind": messages.WRITE, "obj": f"o{i}", "value": i, "req": i}
                    for i in range(8)
                ]
                conn.transport.write(b"".join(encode_frame(f) for f in burst))
                replies = [
                    await asyncio.wait_for(conn.recv(), 2.0) for _ in burst
                ]
                await conn.close()
                return replies
            finally:
                await server.close()

        replies = asyncio.run(scenario())
        assert [r["kind"] for r in replies] == [messages.WRITE_ACK] * 8
        assert [r["req"] for r in replies] == list(range(8))
        alphas = [r["alpha"] for r in replies]
        assert alphas == sorted(alphas) and len(set(alphas)) == 8

    def test_lost_reply_is_retransmitted_under_its_id_with_no_timer_per_attempt(self):
        """Every deadline of a channel is kept by one timer, armed at the
        earliest: 500 calls re-arm it only as deadlines pass, never is
        more than one armed — yet a dropped ack is still retransmitted
        after ``REQUEST_TIMEOUT``."""

        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []  # (handle, [fired]) for every timer made from now on
            call_at = loop.call_at

            def recording_call_at(when, callback, *args, **kwargs):
                fired = []

                def run(*args):
                    fired.append(True)
                    callback(*args)

                handle = call_at(when, run, *args, **kwargs)
                timers.append((handle, fired))
                return handle

            def armed():
                return sum(not fired and not handle.cancelled()
                           for handle, fired in timers)

            server = NetObjectServer(
                propagation="none",
                fault_factory=lambda: DropFirst({messages.WRITE_ACK}),
            )
            await server.start()
            try:
                async with NetCacheClient(
                    0, server.host, server.port, delta=0.0,
                ) as client:
                    loop.call_at = recording_call_at  # call_later goes through it
                    started = loop.time()
                    alpha = await client.write("x", "v1")
                    took = loop.time() - started
                    timers_for_the_write = len(timers)
                    most_armed = 0
                    for i in range(500):
                        await client.read("x") if i % 2 else await client.write("y", i)
                        most_armed = max(most_armed, armed())
                    return (alpha, took, timers_for_the_write, len(timers),
                            most_armed, client.stats, server)
            finally:
                loop.call_at = call_at
                await server.close()

        (alpha, took, for_the_write, made, most_armed, stats,
         server) = vtime.run(scenario())
        assert stats.retries == 1 and took >= REQUEST_TIMEOUT
        # Two write frames arrived, one executed: the second carried the
        # first's id, or the reply cache could not have matched it.
        assert server.requests_by_kind[messages.WRITE] == 2 + 250
        assert server.engine.requests == 1 + 500  # delta 0: every read asks
        assert server.engine.dedup_replays == 1
        assert server.engine.store["x"].alpha == alpha
        # The first attempt's deadline and the retransmit's, re-armed
        # after the first fired.
        assert for_the_write == 2
        # Not one per call: only re-arms after a deadline passes.
        assert made - for_the_write < 50
        assert most_armed == 1

    @staticmethod
    async def stall(server, writer):
        """A push subscriber that stopped reading, written at until the
        kernel's buffers and then the server's transport are full: its
        feeder is parked in ``send()``.  Returns the subscriber and how
        many pushes went out before that."""
        subscriber = await raw_peer(server, 9, subscribe=True)
        subscriber.transport.pause_reading()
        for written in range(1, 41):
            await asyncio.wait_for(
                writer.write("big", f"{written}" + "x" * 900_000), 2.0
            )
            if server.pushes_sent < written:
                return subscriber, server.pushes_sent
        pytest.fail("the stalled link never filled up")

    def test_a_stalled_subscriber_does_not_delay_another_clients_writes(self):
        """Requests are served in place, so the push fan-out must never
        wait on a subscriber's socket, or one subscriber that stops
        reading parks every writer."""

        async def scenario():
            server = NetObjectServer(propagation="push")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as writer:
                    subscriber, parked_at = await self.stall(server, writer)
                    await asyncio.wait_for(asyncio.gather(
                        *(writer.write(f"k{n}", n) for n in range(8))
                    ), 1.0)
                    got_through = server.pushes_sent - parked_at
                await subscriber.close()
                return got_through
            finally:
                await asyncio.wait_for(server.close(), 2.0)

        # The eight writes were acknowledged while not one push moved.
        assert asyncio.run(scenario()) == 0

    def test_a_stalled_subscriber_holds_a_bounded_backlog(self, monkeypatch):
        """What a subscriber has not read is queued up to
        ``SUBSCRIBER_BACKLOG`` frames, then it is disconnected: neither
        a task nor a frame per write piles up behind a dead reader."""
        monkeypatch.setattr("repro.net.server.SUBSCRIBER_BACKLOG", 4)

        async def scenario():
            server = NetObjectServer(propagation="push")
            await server.start()
            try:
                async with NetCacheClient(0, server.host, server.port) as writer:
                    subscriber, _ = await self.stall(server, writer)
                    (outbox,) = server._subscribers.values()
                    tasks = len(asyncio.all_tasks())
                    depths = []
                    for n in range(8):
                        await asyncio.wait_for(writer.write(f"k{n}", n), 1.0)
                        depths.append(outbox.qsize())
                    tasks = len(asyncio.all_tasks()) - tasks
                    subscriber.transport.resume_reading()
                    with pytest.raises((ConnectionError, FrameError)):  # cut off
                        while await asyncio.wait_for(subscriber.recv(), 2.0):
                            pass
                    await subscriber.close()
                    return depths, tasks, server
            finally:
                await asyncio.wait_for(server.close(), 2.0)

        depths, tasks, server = asyncio.run(scenario())
        assert depths == [1, 2, 3, 4, 4, 4, 4, 4]  # full at the fourth write
        assert tasks <= 0  # no task per write (the dropped one's are gone)
        assert server.subscribers_dropped == 1
        assert server._subscribers == {}

    def test_shutdown_hands_queued_pushes_over_before_bye(self):
        """The drain covers the fan-out: pushes of acknowledged writes
        reach a slow subscriber before ``bye``, none after it."""

        async def scenario():
            server = NetObjectServer(propagation="push")
            await server.start()
            async with NetCacheClient(0, server.host, server.port) as writer:
                subscriber, _ = await self.stall(server, writer)
                for n in range(3):
                    await writer.write(f"k{n}", n)  # queued behind the parked one
                stopping = asyncio.ensure_future(server.shutdown(grace=5.0))
                await asyncio.sleep(0.05)
                assert not stopping.done()  # waiting for the subscriber
                subscriber.transport.resume_reading()
                frames = []
                while True:
                    frame = await asyncio.wait_for(subscriber.recv(), 2.0)
                    if frame is None:
                        break
                    frames.append((frame["kind"], frame.get("obj")))
                await asyncio.wait_for(stopping, 2.0)
                await subscriber.close()
                return frames

        frames = asyncio.run(scenario())
        assert frames[-4:] == [
            ("push", "k0"), ("push", "k1"), ("push", "k2"), ("bye", None),
        ]
        assert {frame for frame in frames[:-4]} == {("push", "big")}


def shrink_send_buffer(conn, size=4096):
    """Make the kernel take little of what ``conn`` writes, so that its
    transport's buffer and high-water mark decide.  (The receive side is
    left alone: shrinking a window already advertised makes loopback TCP
    crawl on retransmissions.)"""
    sock = conn.transport.get_extra_info("socket")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, size)


class TestBackpressure:
    """The answering end stops reading while its transport has paused
    writing; the asking end never does."""

    REQUESTS = 30_000
    HIGH = 4096

    def test_a_peer_that_asks_and_never_reads_stops_being_read(self):
        """Before, the handler parked in ``send`` while ``buffer_updated``
        decoded every frame the peer pipelined into a queue without
        bound; now the requests stay in the peer's buffers, and all are
        answered, in order and once, when it reads."""

        async def scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                conn = await raw_peer(server, 7)
                (served,) = server._connections
                served.transport.set_write_buffer_limits(high=self.HIGH)
                shrink_send_buffer(served)
                conn.transport.pause_reading()
                conn.transport.write(b"".join(
                    encode_frame({"kind": messages.VALIDATE, "obj": f"k{i % 64}",
                                  "alpha": 0.0, "req": i})
                    for i in range(self.REQUESTS)
                ))
                readings = [served.received]
                while len(readings) < 3 or readings[-1] != readings[-3]:
                    await asyncio.sleep(0.05)  # until two still readings
                    readings.append(served.received)
                stalled = (served.received, served.transport.is_reading(),
                           len(served._inbox), served.transport.get_write_buffer_size())
                conn.transport.resume_reading()

                async def every_reply():
                    return [await conn.recv() for _ in range(self.REQUESTS)]

                replies = await asyncio.wait_for(every_reply(), 20.0)
                await asyncio.sleep(0.05)
                extra = len(conn._inbox)
                await conn.close()
                return stalled, replies, extra, server
            finally:
                await server.close()

        stalled, replies, extra, server = asyncio.run(scenario())
        received, reading, queued, buffered = stalled
        assert received < self.REQUESTS and not reading and queued == 0
        # What it read in the last buffer_updated before it stopped: one
        # socket read (256 KiB in asyncio) of 24-byte requests, answered.
        assert buffered < self.HIGH + (256 * 1024 // 24 + 1) * 28
        assert [r["req"] for r in replies] == list(range(self.REQUESTS))
        assert {r["kind"] for r in replies} == {messages.STILL_VALID}
        assert extra == 0
        assert server.requests_by_kind == {messages.VALIDATE: self.REQUESTS}

    def test_a_client_and_a_server_both_past_high_water_still_finish(
        self, monkeypatch
    ):
        """Big writes fill the client's transport while big cold reads
        fill the server's: the server stops reading, the client's calls
        park in ``send``, and the client's channel goes on reading, which
        is what lets either side move."""
        blob = "x" * 65536
        sides, both_paused = [], []  # the client's end and the server's
        pause_writing = FrameConnection.pause_writing

        def pausing(conn):
            pause_writing(conn)
            both_paused.append(all(side._paused for side in sides))

        async def scenario():
            server = await NetObjectServer(propagation="none").start()
            try:
                async with NetCacheClient(1, server.host, server.port) as writer:
                    await asyncio.gather(*(writer.write(f"r{i}", blob) for i in range(64)))
                async with NetCacheClient(2, server.host, server.port) as client:
                    here = client.link.channel.conn.transport.get_extra_info("sockname")
                    sides.append(client.link.channel.conn)
                    sides.extend(
                        c for c in server._connections
                        if c.transport.get_extra_info("peername") == here
                    )
                    for side in sides:
                        side.transport.set_write_buffer_limits(high=1024)
                        shrink_send_buffer(side)
                    monkeypatch.setattr(FrameConnection, "pause_writing", pausing)
                    values = await asyncio.wait_for(asyncio.gather(
                        *(client.read(f"r{i}") for i in range(64)),
                        *(client.write(f"w{i}", blob) for i in range(64)),
                    ), 20.0)
                    return values, client.stats.retries
            finally:
                await server.close()

        values, retries = asyncio.run(scenario())
        assert len(sides) == 2
        assert values[:64] == [blob] * 64 and retries == 0
        assert any(both_paused)


def spy_on_writes(conn, seen):
    """Call ``seen(frame)`` for every frame ``conn`` hands its transport,
    at the moment it does."""
    write = conn.transport.write

    def spy(data):
        seen(decode_frame(bytes(data[4:])))
        write(data)

    conn.transport.write = spy


def writes_burst(n, first_req=0, prefix="o"):
    return [
        {"kind": messages.WRITE, "obj": f"{prefix}{i}", "value": f"v{first_req + i}",
         "req": first_req + i}
        for i in range(n)
    ]


async def exchange(conn, frames):
    """``frames`` in one TCP segment; one reply per frame."""
    conn.transport.write(b"".join(encode_frame(f) for f in frames))
    return [await asyncio.wait_for(conn.recv(), 2.0) for _ in frames]


class GatedFsync:
    """``os.fsync`` whose first call, on the store's worker thread, waits
    for :attr:`gate` and then syncs, or raises ``failure``; later calls
    sync at once."""

    def __init__(self, monkeypatch, failure=None):
        self.entered, self.gate = threading.Event(), threading.Event()
        fsync = os.fsync

        def gated(fd):
            if not self.entered.is_set():
                self.entered.set()
                self.gate.wait(5.0)
                if failure is not None:
                    raise failure
            fsync(fd)

        monkeypatch.setattr(os, "fsync", gated)

    async def held(self):
        """Return once the first fsync is waiting at the gate."""
        while not self.entered.is_set():
            await asyncio.sleep(0.001)


async def executed(server, requests):
    """Return once the server has executed ``requests`` requests."""
    while server.engine.requests < requests:
        await asyncio.sleep(0.001)


class TestGroupCommit:
    """With a store, a reply leaves once every write it reflects is on
    disk, and after every reply before it on its connection: a pipelined
    burst is executed, logged, synced once — on the store's worker thread,
    while the loop serves on — and then acknowledged (ROADMAP 1(d))."""

    @staticmethod
    async def durable_server(root, propagation="none", **store_options):
        store_options.setdefault("fsync", "always")
        return await NetObjectServer(
            propagation=propagation, store=DurableStore(str(root), **store_options)
        ).start()

    def test_a_burst_of_eight_writes_pays_one_fsync(self, tmp_path):
        async def scenario():
            server = await self.durable_server(tmp_path)
            try:
                conn = await raw_peer(server, 7)
                wal = server.durable.wal
                before = wal.fsyncs
                replies = await exchange(conn, writes_burst(8))
                fsyncs = wal.fsyncs - before
                await exchange(conn, writes_burst(1, first_req=8))
                await conn.close()
                return replies, fsyncs, wal.fsyncs - before
            finally:
                await server.abort()

        replies, fsyncs, after_a_single = asyncio.run(scenario())
        assert fsyncs == 1
        assert after_a_single == 2  # a burst of one is the ordinary case
        assert [r["kind"] for r in replies] == [messages.WRITE_ACK] * 8
        assert [r["req"] for r in replies] == list(range(8))
        alphas = [r["alpha"] for r in replies]
        assert alphas == sorted(alphas) and len(set(alphas)) == 8
        logged = [r for r in replay_wal(str(tmp_path / "wal.log")).records
                  if r.get("k") == REC_WRITE]
        assert [r["t"] for r in logged[:8]] == alphas

    def test_every_ack_is_of_a_write_the_disk_already_has(self, tmp_path):
        """Crash the disk, not the process: at the moment an ack is
        handed to the transport, the log holds nothing beyond what was
        fsynced, and what was fsynced recovers the acknowledged write."""
        root, copies = tmp_path / "store", tmp_path / "copies"
        acks = []

        async def scenario():
            server = await self.durable_server(root)
            wal = server.durable.wal
            synced = [wal.size]
            wal.on_fsync = lambda elapsed: synced.append(wal.size)

            def seen(frame):
                if frame["kind"] != messages.WRITE_ACK:
                    return
                assert wal.size == synced[-1]
                survivor = str(copies / str(len(acks)))
                shutil.copytree(root, survivor)
                with open(os.path.join(survivor, "wal.log"), "r+b") as fh:
                    fh.truncate(synced[-1])
                acks.append((frame["obj"], frame["alpha"], survivor))

            try:
                one, other = await raw_peer(server, 1), await raw_peer(server, 2)
                for conn in server._connections:
                    spy_on_writes(conn, seen)
                await exchange(one, writes_burst(8))
                await asyncio.gather(
                    exchange(one, writes_burst(3, first_req=8)),
                    exchange(other, writes_burst(5, prefix="p")),
                )
                await exchange(other, writes_burst(1, first_req=5))
                await one.close()
                await other.close()
            finally:
                await server.abort()

        asyncio.run(scenario())
        assert len(acks) == 17
        for obj, alpha, survivor in acks:
            recovered = DurableStore(survivor)
            assert recovered.open().objects[obj].alpha >= alpha, (obj, alpha)
            recovered.close()

    def test_a_failed_commit_answers_the_whole_burst_error(
        self, tmp_path, monkeypatch, caplog
    ):
        """Log-before-ack per batch: the sync of a burst fails, so none
        of its held acks leaves, and none is replayed to a retransmit."""
        fsync, failures = os.fsync, [OSError(errno.EIO, "Input/output error")]

        def fsync_failing_once(fd):
            if failures:
                raise failures.pop()
            fsync(fd)

        async def scenario():
            server = await self.durable_server(tmp_path)
            try:
                conn = await raw_peer(server, 7)
                burst = writes_burst(8)
                monkeypatch.setattr(os, "fsync", fsync_failing_once)
                with caplog.at_level("CRITICAL", logger="repro.net.server"):
                    refused = await exchange(conn, burst)
                cached = len(server.engine.replies)
                again = await exchange(conn, burst)  # the retransmits
                after = await exchange(conn, writes_burst(8, first_req=8, prefix="p"))
                await conn.close()
                return refused, cached, again, after, server.engine
            finally:
                await server.abort()

        refused, cached, again, after, engine = asyncio.run(scenario())
        assert [r["kind"] for r in refused] == ["error"] * 8
        assert [r["req"] for r in refused] == list(range(8))
        assert all("Input/output error" in r["error"] for r in refused)
        assert cached == 0
        # Re-executed under the same ids, not replayed.
        assert [r["kind"] for r in again] == [messages.WRITE_ACK] * 8
        assert engine.dedup_replays == 0 and engine.requests == 24
        assert [r["kind"] for r in after] == [messages.WRITE_ACK] * 8
        store = DurableStore(str(tmp_path))
        recovered = store.open().objects
        store.close()
        assert {obj: v.alpha for obj, v in recovered.items()} == {
            r["obj"]: r["alpha"] for r in again + after
        }

    def test_nothing_executed_behind_a_write_leaves_before_its_sync(self, tmp_path):
        """A ``validate`` queued behind a write and the write's push wait
        for the fsync; a ``validate`` queued ahead of it does not."""
        events = []

        async def scenario():
            server = await self.durable_server(tmp_path, propagation="push")
            server.durable.wal.on_fsync = lambda elapsed: events.append("fsync")
            try:
                writer = await raw_peer(server, 1)
                subscriber = await raw_peer(server, 2, subscribe=True)
                for conn in server._connections:
                    spy_on_writes(
                        conn, lambda f: events.append((f["kind"], f.get("req")))
                    )
                await exchange(writer, [
                    {"kind": messages.VALIDATE, "obj": "a", "alpha": 0.0, "req": 0},
                    {"kind": messages.WRITE, "obj": "x", "value": 1, "req": 1},
                    {"kind": messages.VALIDATE, "obj": "x", "alpha": 0.0, "req": 2},
                ])
                assert (await asyncio.wait_for(subscriber.recv(), 2.0))["kind"] == "push"
                await writer.close()
                await subscriber.close()
            finally:
                await server.abort()

        asyncio.run(scenario())
        assert events == [
            (messages.STILL_VALID, 0), "fsync",
            (messages.WRITE_ACK, 1), (messages.VERSION, 2), ("push", None),
        ]

    def test_another_connection_is_served_while_a_commit_syncs(
        self, tmp_path, monkeypatch
    ):
        """The fsync runs on the store's worker thread, so the loop
        executes a second connection's burst while the first burst's
        fsync is held, and holds its replies behind it: each burst's
        acks leave after the fsync that covered it."""
        events = []

        async def scenario():
            server = await self.durable_server(tmp_path)
            wal = server.durable.wal
            before = wal.fsyncs
            wal.on_fsync = lambda elapsed: events.append("fsync")
            try:
                one, other = await raw_peer(server, 1), await raw_peer(server, 2)
                for conn in server._connections:
                    spy_on_writes(
                        conn, lambda f: events.append((f["kind"], f["obj"]))
                    )
                fsync = GatedFsync(monkeypatch)
                first = asyncio.ensure_future(exchange(one, writes_burst(8)))
                await fsync.held()
                served_before = server.engine.requests
                second = asyncio.ensure_future(
                    exchange(other, writes_burst(8, prefix="p"))
                )
                await asyncio.wait_for(executed(server, served_before + 8), 2.0)
                while_held = list(events)
                fsync.gate.set()
                await asyncio.gather(first, second)
                await one.close()
                await other.close()
                return served_before, while_held, wal.fsyncs - before
            finally:
                await server.abort()

        served_before, while_held, fsyncs = asyncio.run(scenario())
        assert served_before == 8
        assert while_held == []  # neither burst's replies left
        assert events == [
            "fsync", *((messages.WRITE_ACK, f"o{i}") for i in range(8)),
            "fsync", *((messages.WRITE_ACK, f"p{i}") for i in range(8)),
        ]
        assert fsyncs == 2

    def test_a_reply_waits_for_the_writes_it_reflects_and_its_connection(
        self, tmp_path, monkeypatch
    ):
        """While the first burst's fsync is held, another connection's
        read of an object already on disk is answered at once; its read
        of an object the burst wrote waits for the fsync, and so does
        the reply behind it on that connection."""
        events = []

        def fetch(obj, req):
            return {"kind": messages.FETCH, "obj": obj, "req": req}

        async def scenario():
            server = await self.durable_server(tmp_path)
            try:
                one, other = await raw_peer(server, 1), await raw_peer(server, 2)
                await exchange(other, [
                    {"kind": messages.WRITE, "obj": "q", "value": 0, "req": 100},
                ])
                server.durable.wal.on_fsync = lambda elapsed: events.append("fsync")
                for conn in server._connections:
                    spy_on_writes(
                        conn, lambda f: events.append((f["kind"], f["req"]))
                    )
                fsync = GatedFsync(monkeypatch)
                first = asyncio.ensure_future(exchange(one, writes_burst(8)))
                await fsync.held()
                (free,) = await exchange(other, [fetch("q", 101)])
                while_held = list(events)
                behind = asyncio.ensure_future(
                    exchange(other, [fetch("o3", 102), fetch("q", 103)])
                )
                await asyncio.wait_for(executed(server, 12), 2.0)
                fsync.gate.set()
                await asyncio.gather(first, behind)
                await one.close()
                await other.close()
                return free, while_held
            finally:
                await server.abort()

        free, while_held = asyncio.run(scenario())
        assert free["value"] == 0
        assert while_held == [(messages.VERSION, 101)]
        assert events == [
            (messages.VERSION, 101), "fsync",
            *((messages.WRITE_ACK, req) for req in range(8)),
            (messages.VERSION, 102), (messages.VERSION, 103),
        ]

    def test_a_failed_fsync_answers_only_the_bursts_it_covered_error(
        self, tmp_path, monkeypatch, caplog
    ):
        """The first burst's fsync fails while a second connection's
        burst waits behind it: the first is refused and forgotten by the
        reply cache, the second is committed by the next fsync and
        acknowledged, and what that fsync covered recovers every ack."""
        root, survivor = tmp_path / "store", tmp_path / "survivor"

        async def scenario():
            server = await self.durable_server(root)
            wal = server.durable.wal
            synced = []
            wal.on_fsync = lambda elapsed: synced.append(wal.size)
            try:
                one, other = await raw_peer(server, 1), await raw_peer(server, 2)
                fsync = GatedFsync(
                    monkeypatch, OSError(errno.EIO, "Input/output error")
                )
                first = asyncio.ensure_future(exchange(one, writes_burst(8)))
                await fsync.held()
                second = asyncio.ensure_future(
                    exchange(other, writes_burst(8, prefix="p"))
                )
                await asyncio.wait_for(executed(server, 16), 2.0)
                with caplog.at_level("CRITICAL", logger="repro.net.server"):
                    fsync.gate.set()
                    refused, acked = await asyncio.gather(first, second)
                shutil.copytree(root, survivor)
                with open(survivor / "wal.log", "r+b") as fh:
                    fh.truncate(synced[-1])
                await one.close()
                await other.close()
                return refused, acked, len(server.engine.replies), synced
            finally:
                await server.abort()

        refused, acked, cached, synced = asyncio.run(scenario())
        assert [r["kind"] for r in refused] == ["error"] * 8
        assert all("Input/output error" in r["error"] for r in refused)
        assert [r["kind"] for r in acked] == [messages.WRITE_ACK] * 8
        assert cached == 8  # the second burst's replies only
        assert len(synced) == 1
        store = DurableStore(str(survivor))
        recovered = store.open().objects
        store.close()
        for reply in acked:
            assert recovered[reply["obj"]].alpha == reply["alpha"], reply

    @pytest.mark.parametrize("policy, fsyncs", [("interval", 1), ("never", 0)])
    def test_the_fsync_policy_is_consulted_once_per_burst(
        self, tmp_path, policy, fsyncs
    ):
        async def scenario():
            server = await self.durable_server(tmp_path, fsync=policy)
            try:
                conn = await raw_peer(server, 7)
                wal = server.durable.wal
                before = wal.fsyncs
                await asyncio.sleep(FSYNC_INTERVAL)  # the interval is due
                replies = await exchange(conn, writes_burst(8))
                on_disk = [r for r in replay_wal(wal.path).records
                           if r.get("k") == REC_WRITE]
                await conn.close()
                return replies, on_disk, wal.fsyncs - before
            finally:
                await server.abort()

        replies, on_disk, synced = asyncio.run(scenario())
        assert synced == fsyncs
        # Whatever the policy, an ack leaves after its record left the process.
        assert [(r["obj"], r["t"]) for r in on_disk] == [
            (r["obj"], r["alpha"]) for r in replies
        ]

    def test_sync_and_the_control_plane_are_not_part_of_a_burst(self, tmp_path):
        """A ``sync`` pipelined behind writes is answered alone, after
        their acks; a ``bye`` still ends the connection."""

        async def scenario():
            server = await self.durable_server(tmp_path)
            try:
                conn = await raw_peer(server, 7)
                wal = server.durable.wal
                before = wal.fsyncs
                replies = await exchange(conn, [
                    *writes_burst(2),
                    {"kind": "sync", "t0": 1.0, "req": 2},
                    {"kind": "ping", "req": 3},
                    *writes_burst(2, first_req=4),
                ])
                conn.transport.write(encode_frame({"kind": "bye"}))
                end = await asyncio.wait_for(conn.recv(), 2.0)
                await conn.close()
                return replies, end, wal.fsyncs - before
            finally:
                await server.abort()

        replies, end, fsyncs = asyncio.run(scenario())
        assert sorted(r["req"] for r in replies) == list(range(6))
        in_place = [r["req"] for r in replies if r["kind"] != "ping-ack"]
        assert in_place == [0, 1, 2, 4, 5]  # the ping's task answers when it runs
        assert fsyncs == 2 and end is None


class TestPipelinedWaves:
    """The ``write_durable`` shape against a store-backed server: several
    sites, each with waves of writes pipelined as deep as it may go."""

    SITES, WAVES, DEPTH = 4, 5, 8

    def test_every_write_is_executed_and_acknowledged_once_in_order(self, tmp_path):
        async def scenario():
            server = await TestGroupCommit.durable_server(tmp_path)
            wal = server.durable.wal
            before = wal.fsyncs
            replies = {}  # site -> request ids, in the order replies arrived

            async def site(client_id):
                async with NetCacheClient(
                    client_id, server.host, server.port, pipeline_depth=self.DEPTH
                ) as client:
                    seen = replies[client_id] = []
                    on_frame = client.link.channel.on_frame
                    client.link.channel.on_frame = lambda f: (
                        seen.append(f.get("req")), on_frame(f)
                    )
                    alphas = []
                    for wave in range(self.WAVES):
                        alphas += await asyncio.gather(*(
                            client.write(f"s{client_id}-{wave}-{i}", i)
                            for i in range(self.DEPTH)
                        ))
                    return alphas, client.stats.retries

            try:
                outcomes = await asyncio.gather(
                    *(site(client_id) for client_id in range(self.SITES))
                )
                return outcomes, replies, server.engine, wal.fsyncs - before
            finally:
                await server.abort()

        outcomes, replies, engine, fsyncs = asyncio.run(scenario())
        writes = self.SITES * self.WAVES * self.DEPTH
        alphas = [alpha for site_alphas, _ in outcomes for alpha in site_alphas]
        assert len(alphas) == len(set(alphas)) == writes  # an alpha of its own each
        assert [retries for _, retries in outcomes] == [0] * self.SITES
        assert engine.requests == writes and engine.dedup_replays == 0
        for seen in replies.values():
            # Acknowledged once each, and in the order they were asked.
            assert seen == sorted(set(seen)) and len(seen) == writes // self.SITES
        assert fsyncs < writes  # bursts shared their log syncs


class TestLifecycle:
    """``wait_closed()`` waits for the accepted connections since Python
    3.12, so the server has to close them *before* it awaits it."""

    @pytest.mark.parametrize("how", ["close", "shutdown", "abort"])
    def test_stopping_with_a_live_client_returns(self, how):
        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            client = NetCacheClient(0, server.host, server.port)
            await client.connect()
            try:
                await client.write("x", 1)
                await asyncio.wait_for(getattr(server, how)(), 1.0)
                left = asyncio.all_tasks() - {asyncio.current_task()}
                await asyncio.sleep(0.05)
                return left, client.link.channel.connected
            finally:
                await client.close()

        left, connected = asyncio.run(scenario())
        assert left == set()  # every task the server started was awaited
        assert not connected

    def test_a_connection_accepted_while_closing_is_closed_too(self):
        async def scenario():
            server = NetObjectServer(propagation="none")
            await server.start()
            conn = await dial(server.host, server.port)  # not yet served
            await asyncio.wait_for(server.close(), 1.0)
            try:
                return await asyncio.wait_for(conn.recv(), 1.0)
            finally:
                await conn.close()

        assert asyncio.run(scenario()) is None  # EOF, not an orphan


class TestAnFsyncInFlight:
    """Stopping a store-backed server while its worker thread syncs."""

    @staticmethod
    async def holding(server, monkeypatch, client_id=7):
        """A peer whose burst of eight writes waits for a held fsync."""
        conn = await raw_peer(server, client_id)
        fsync = GatedFsync(monkeypatch)
        conn.transport.write(b"".join(encode_frame(f) for f in writes_burst(8)))
        await fsync.held()
        return conn, fsync

    def test_abort_sends_no_held_reply_and_closes_the_log_after_the_worker(
        self, tmp_path, monkeypatch, caplog
    ):
        sent = []

        async def scenario():
            server = await TestGroupCommit.durable_server(tmp_path)
            conn, fsync = await self.holding(server, monkeypatch)
            for served in server._connections:
                spy_on_writes(served, sent.append)
            aborting = asyncio.ensure_future(server.abort())
            await asyncio.sleep(0.05)
            waiting = not aborting.done() and server.durable.wal is not None
            fsync.gate.set()
            await asyncio.wait_for(aborting, 2.0)
            await conn.close()
            return waiting, server.durable.wal

        with caplog.at_level("DEBUG"):
            waiting, wal = asyncio.run(scenario())
        assert waiting and wal is None
        assert sent == []
        assert [r for r in caplog.records if r.levelname in ("ERROR", "CRITICAL")] == []
        store = DurableStore(str(tmp_path))
        assert sorted(store.open().objects) == [f"o{i}" for i in range(8)]  # synced
        store.close()

    def test_shutdown_hands_every_held_ack_over_before_bye(self, tmp_path, monkeypatch):
        async def scenario():
            server = await TestGroupCommit.durable_server(tmp_path)
            conn, fsync = await self.holding(server, monkeypatch)
            draining = asyncio.ensure_future(server.shutdown())
            await asyncio.sleep(0.05)
            fsync.gate.set()
            frames = []
            while (frame := await asyncio.wait_for(conn.recv(), 2.0)) is not None:
                frames.append(frame)
            await asyncio.wait_for(draining, 2.0)
            await conn.close()
            return frames

        frames = asyncio.run(scenario())
        assert [f["kind"] for f in frames] == [messages.WRITE_ACK] * 8 + ["bye"]
        assert [f.get("req") for f in frames[:8]] == list(range(8))

    @pytest.mark.parametrize("how", ["close", "shutdown", "abort"])
    def test_no_fsync_worker_outlives_the_server(self, tmp_path, how):
        before = set(threading.enumerate())

        async def scenario():
            server = await TestGroupCommit.durable_server(tmp_path)
            conn = await raw_peer(server, 7)
            await exchange(conn, writes_burst(8))
            started = set(threading.enumerate()) - before
            await getattr(server, how)()
            await conn.close()
            return started, set(threading.enumerate()) - before

        started, left = asyncio.run(scenario())
        assert len(started) == 1  # the store's one worker, started lazily
        assert left == set()
