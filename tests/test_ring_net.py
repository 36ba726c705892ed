"""The tentpole acceptance tests: a real multi-server TCP cluster,
ring-routed and replicated, whose merged trace passes the timed
checkers — including across a live join.  The soaks run
in virtual time (:mod:`repro.sim.vtime`), so each seed is one schedule;
the one real-loop smoke is ``test_three_servers_two_replicas_trace_is_tsc``
(``run_ring_soak`` is the ``asyncio.run`` wrapper ``repro ring soak``
calls)."""

import asyncio
import itertools
import math

import pytest

from repro.clocks.rebase import RebasedClock, loop_time
from repro.cluster import ClusterConfig
from repro.engine import messages
from repro.net.client import MAX_RETRIES
from repro.net.local import LocalStack
from repro.net.workloads import ring_cluster, run_ring_soak
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.ring import Ring, RingBuilder, uniform_ring
from repro.sim import vtime
from repro.sim.trace import TraceRecorder
from tests.test_net_pipeline import DropFirst

pytestmark = pytest.mark.net


def soak(**kwargs):
    return vtime.run(ring_cluster(**kwargs))


class TestRingSoak:
    def test_three_servers_two_replicas_trace_is_tsc(self):
        report = run_ring_soak(
            n_servers=3, replicas=2, n_clients=2, rounds=15, delta=0.4, seed=7
        )
        assert report.tsc.satisfied, report.tsc.violation
        assert report.sc.satisfied
        assert report.off_ring_reads == 0
        assert not report.late_reads
        assert math.isfinite(report.epsilon)
        # The workload really was multi-server: several devices served.
        assert len(report.reads_by_device) >= 2
        assert len([d for d, n in report.server_requests.items() if n]) == 3

    def test_trace_satisfies_tcc_as_well(self):
        report = soak(
            n_servers=3, replicas=2, n_clients=2, rounds=12, delta=0.4, seed=3
        )
        assert report.tcc.satisfied, report.tcc.violation

    def test_spread_reads_stay_timed(self):
        # Round-robin reads over the replica set: freshness is carried by
        # the full-N write fan-out, so the trace must still check out.
        report = soak(
            n_servers=3, replicas=2, n_clients=2, rounds=15, delta=0.4,
            read_policy="spread", seed=9,
        )
        assert report.tsc.satisfied, report.tsc.violation
        assert report.off_ring_reads == 0

    def test_write_quorum_one_stays_timed_after_drain(self):
        report = soak(
            n_servers=3, replicas=2, n_clients=2, rounds=12, delta=0.4,
            write_quorum=1, seed=5,
        )
        assert report.tsc.satisfied, report.tsc.violation
        queued, done, late = report.repairs()
        assert late == 0  # no repair missed its delta deadline

    @pytest.mark.parametrize("n_servers, replicas", [(1, 1), (2, 1), (5, 3)])
    def test_other_shapes_stay_timed_with_no_off_ring_read(
        self, n_servers, replicas
    ):
        # Shapes no test above runs: the degenerate one-device ring,
        # sharding without replication, and three replicas.
        report = soak(
            n_servers=n_servers, replicas=replicas, n_clients=2, rounds=12,
            delta=0.4, seed=7,
        )
        assert report.tsc.satisfied, report.tsc.violation
        assert report.off_ring_reads == 0


class TestGrowthHandoff:
    def test_midrun_growth_keeps_the_trace_timed(self):
        report = soak(
            n_servers=3, replicas=2, n_clients=2, rounds=14, delta=0.4,
            add_device_midway=True, cluster=True, seed=7,
        )
        # The joiner is in the ring every router cut over to, at an
        # epoch above the one the soak started from.
        assert report.ring.device_ids() == [0, 1, 2, 3]
        assert report.ring.epoch > 1
        assert all(s.ring_swaps == 1 for s in report.router_stats.values())
        assert report.join_seconds is not None and report.join_seconds > 0
        # Reads kept flowing during the join and after the cutover, and
        # none of them — checker-verified — was older than delta allows.
        assert report.tsc.satisfied, report.tsc.violation
        assert report.sc.satisfied, report.sc.violation
        assert report.off_ring_reads == 0
        assert not report.late_reads
        assert report.unmatched_reads == 0

    def test_a_joiner_holds_the_donors_version_not_a_sites_cached_one(self):
        """A site caches every key at delta = inf, another site then
        overwrites them all, and a device joins.  A copy read through the
        first site would be its cached, overwritten value (a handoff that
        read through that site's engine copied ``k1.old`` here); the
        joiner must hold what the donor holds."""
        keys = [f"k{i}" for i in range(24)]
        config = ClusterConfig(probe_period=0.1, suspect_timeout=0.3, seed=1)

        async def scenario():
            async with LocalStack(servers=3, replicas=2,
                                  cluster=config) as stack:
                cacher = await stack.connect(1, delta=math.inf)
                writer = await stack.connect(2, delta=math.inf)
                for key in keys:
                    await writer.write(key, f"{key}.old")
                for key in keys:
                    await cacher.read(key)
                for key in keys:
                    await writer.write(key, f"{key}.new")
                cached = {key: cacher.engine.cache[key].version.value
                          for key in keys}
                grown_from = stack.ring.epoch
                joiner = await stack.add_server()
                coordinator = stack.servers[0].engine
                deadline = loop_time() + 10.0
                while coordinator.epoch <= grown_from:
                    assert loop_time() < deadline, "the device never joined"
                    await asyncio.sleep(0.05)
                ring = Ring.from_dict(coordinator.ring)
                received = {
                    obj: version.value for obj, version
                    in stack.servers[joiner].engine.store.items()
                }
                donors = {
                    obj: stack.servers[stack.ring.primary_for(obj)]
                    .engine.store[obj].value
                    for obj in received
                }
                return cached, ring, joiner, received, donors

        cached, ring, joiner, received, donors = vtime.run(scenario())
        assert cached == {key: f"{key}.old" for key in keys}
        assert joiner in ring.devices
        assert received and set(received) == {
            key for key in keys if joiner in ring.replicas_for(key)
        }
        assert received == donors
        assert received == {key: f"{key}.new" for key in received}


class TestRingRouterUnit:
    def test_missing_endpoint_rejected(self):
        ring = uniform_ring(2, part_power=4)
        with pytest.raises(ValueError, match="no endpoint"):
            RingRouter(0, ring, {0: ("127.0.0.1", 1)})

    def test_bad_read_policy_rejected(self):
        ring = uniform_ring(1, part_power=4)
        with pytest.raises(ValueError, match="read_policy"):
            RingRouter(0, ring, {0: ("h", 1)}, read_policy="nearest")

    def test_swap_requires_connected_devices(self):
        ring = uniform_ring(2, part_power=4)
        router = RingRouter(0, ring, {0: ("h", 1), 1: ("h", 2)})
        grown = uniform_ring(3, part_power=4)
        with pytest.raises(ValueError, match="not connected"):
            router.swap_ring(grown)

    def test_epsilon_composes_across_device_estimators(self):
        ring = uniform_ring(2, part_power=4)

        async def scenario():
            servers = [
                await NetObjectServer("127.0.0.1", 0, propagation="none").start()
                for _ in range(2)
            ]
            endpoints = {i: ("127.0.0.1", servers[i].port) for i in range(2)}
            try:
                async with RingRouter(0, ring, endpoints, delta=1.0) as router:
                    errs = {
                        dev: client.clock.estimator.error_bound
                        for dev, client in router.clients.items()
                    }
                    expected = 2.0 * (errs[router.reference] + max(errs.values()))
                    assert router.epsilon_bound == pytest.approx(expected)
                    # The reference device's stamps reach the engine exactly.
                    reference = router.clients[router.reference]
                    still_valid = {
                        "kind": messages.STILL_VALID, "obj": "x", "omega": 1.25,
                    }
                    assert router._rebased(reference, still_valid)["omega"] == 1.25
            finally:
                for server in servers:
                    await server.close()

        vtime.run(scenario())

    def test_reads_and_writes_route_within_the_replica_set(self):
        ring = uniform_ring(3, part_power=5, replicas=2)

        async def scenario():
            servers = [
                await NetObjectServer("127.0.0.1", 0, propagation="none").start()
                for _ in range(3)
            ]
            endpoints = {i: ("127.0.0.1", servers[i].port) for i in range(3)}
            try:
                async with RingRouter(0, ring, endpoints, delta=1.0) as router:
                    for i in range(10):
                        await router.write(f"obj{i}", f"v{i}")
                        assert await router.read(f"obj{i}") == f"v{i}"
                    for i in range(10):
                        replicas = set(ring.replicas_for(f"obj{i}"))
                        # every copy landed inside the replica set
                        for dev, server in enumerate(servers):
                            if f"obj{i}" in server.engine.store:
                                assert dev in replicas
                    assert router.stats.off_ring_reads == 0
            finally:
                for server in servers:
                    await server.close()

        vtime.run(scenario())


class TestOneContextPerSite:
    """A site's device links drive one engine, and every stamp meets its
    ``Context`` rebased onto the reference device's timescale.  The two
    servers' clocks are 40 ms apart, far more than the virtual time the
    steps take, so stamps compared unrebased would decide the other way."""

    def test_stamps_meet_one_context_rebased(self):
        async def scenario():
            async with LocalStack(servers=2, replicas=1, server_skew=0.02) as stack:
                def on(dev):
                    return (f"k{i}" for i in itertools.count()
                            if stack.ring.primary_for(f"k{i}") == dev)

                (x, c), y = itertools.islice(on(1), 2), next(on(0))
                writer = await stack.connect(2, delta=math.inf)
                reader = await stack.connect(1, delta=math.inf)
                cache, stats = reader.engine.cache, reader.engine.stats
                await writer.write(y, "y1")
                await writer.write(x, "x1")
                await reader.read(x)  # from device 1
                await reader.read(y)  # written before x was read: x stays
                kept = (cache[x].old,
                        cache[x].version.omega < cache[y].version.alpha)
                await writer.write(c, "c1")
                await reader.read(c)  # from device 1, written after both reads
                alpha = cache[c].version.alpha
                demoted = [(cache[obj].old, cache[obj].version.omega < alpha)
                           for obj in (x, y)]
                asked = (stats.revalidated, stats.refreshed)
                values = [await reader.read(x), await reader.read(y)]
                answered = (stats.revalidated - asked[0],
                            stats.refreshed - asked[1])
                return kept, demoted, values, answered

        kept, demoted, values, answered = vtime.run(scenario())
        assert kept == (False, False)
        assert demoted == [(True, True), (True, True)]
        # Both revalidations carried their device's own alpha bit for
        # bit, the non-reference device's included: still-valid, twice.
        assert values == ["x1", "y1"] and answered == (2, 0)

    def test_a_site_holds_one_engine_as_devices_join(self):
        async def scenario():
            async with LocalStack(servers=2, replicas=1) as stack:
                router = await stack.connect(1, delta=1.0)

                def engines():
                    return {(id(c.site.engine), id(c.stats))
                            for c in router.clients.values()}

                seen = [engines()]
                joined = await stack.add_server()
                await router.connect_device(joined, *stack.endpoints[joined])
                seen.append(engines())
                adopted = await stack.add_server()
                host, port = stack.endpoints[adopted]
                builder = RingBuilder.from_ring(stack.ring)
                builder.add_device(joined)
                builder.add_device(adopted, address=f"{host}:{port}")
                ring, _ = builder.rebalance()
                assert await router.adopt_ring(ring)
                seen.append(engines())
                one = {(id(router.engine), id(router.engine.stats))}
                return seen, one, sorted(router.clients)

        seen, one, devices = vtime.run(scenario())
        assert seen == [one] * 3 and devices == [0, 1, 2, 3]


def _site_modules():
    """``(module file name, parsed tree)`` of the site and its links."""
    import ast
    import pathlib

    import repro.net

    net = pathlib.Path(repro.net.__file__).parent
    return [(name, ast.parse((net / name).read_text(encoding="utf-8")))
            for name in ("client.py", "ring_router.py")]


def _calls_by_class(tree):
    """``{class name: [the ast.Call nodes in its body]}``."""
    import ast

    return {
        node.name: [call for call in ast.walk(node) if isinstance(call, ast.Call)]
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }


class TestOneSiteClass:
    """A site has one engine, one recorder and one clock, in one class
    (``NetCacheClient``, which ``RingRouter`` extends with placement); a
    ``DeviceLink`` is a channel, a handshake and an epoch."""

    def test_what_a_site_has_once_lives_in_the_site_class(self):
        import ast

        recorders, engines, link_engine_calls = set(), [], []
        for name, tree in _site_modules():
            for cls, calls in _calls_by_class(tree).items():
                for call in calls:
                    func = call.func
                    attr = getattr(func, "attr", None)
                    if attr in ("record_read", "record_write"):
                        recorders.add(cls)
                    if getattr(func, "id", None) == "CacheEngine":
                        engines.append((name, cls))
                    owner = getattr(func, "value", None)
                    if cls == "DeviceLink" and "engine" in (
                        getattr(owner, "attr", None), getattr(owner, "id", None)
                    ):
                        link_engine_calls.append(ast.unparse(call))
        assert recorders == {"NetCacheClient"}
        assert engines == [("client.py", "NetCacheClient")]
        assert link_engine_calls == []

    def test_the_second_site_and_its_bridges_are_gone(self):
        import ast

        classes, endpoints, site_forks, now_sets = set(), [], [], []
        for name, tree in _site_modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    classes.add(node.name)
                if (isinstance(node, ast.Attribute) and node.attr == "endpoints"
                        and getattr(node.value, "id", None) == "self"):
                    endpoints.append(name)
                if isinstance(node, ast.Compare) and any(
                    getattr(side, "attr", getattr(side, "id", None)) == "site"
                    for side in (node.left, *node.comparators)
                ):
                    site_forks.append(ast.unparse(node))
                if isinstance(node, ast.Assign):
                    now_sets.extend(
                        ast.unparse(target) for target in node.targets
                        if isinstance(target, ast.Attribute)
                        and target.attr == "now"
                        and getattr(target.value, "id", None) != "self"
                    )
        assert classes == {
            "NetError", "RequestTimeout", "ProtocolError", "DeviceLink",
            "NetCacheClient", "RouterStats", "RingRouter",
        }
        assert (endpoints, site_forks, now_sets) == ([], [], [])
        assert not hasattr(RingRouter(0, uniform_ring(1, part_power=4),
                                      {0: ("h", 1)}), "endpoints")


class TestRingSoakCoroutine:
    def test_ring_cluster_rejects_impossible_replication(self):
        with pytest.raises(ValueError, match="exceeds"):
            vtime.run(ring_cluster(n_servers=2, replicas=3, rounds=1))


class TestRouterRegressions:
    def test_concurrent_adoptions_keep_one_link_to_a_joiner(
        self, monkeypatch
    ):
        """A reply stamp and the epoch watch may both adopt the ring that
        adds a device; one cuts over, and the link the other opened is
        closed, not left open beside the one the router keeps."""
        made = []
        real = RingRouter._link

        def recording(router, *args):
            made.append(real(router, *args))
            return made[-1]

        monkeypatch.setattr(RingRouter, "_link", recording)

        async def scenario():
            async with LocalStack(servers=2, replicas=1) as stack:
                router = await stack.connect(1, delta=1.0)
                joined = await stack.add_server()
                host, port = stack.endpoints[joined]
                builder = RingBuilder.from_ring(stack.ring)
                builder.add_device(joined, address=f"{host}:{port}")
                ring, _ = builder.rebalance()
                adopted = await asyncio.gather(
                    router.adopt_ring(ring), router.adopt_ring(ring),
                )
                links = made[2:]
                kept = router.clients[joined]
                return (adopted, router.stats.ring_swaps,
                        [(c is kept, c.channel.connected) for c in links])

        adopted, swaps, links = vtime.run(scenario())
        assert sorted(adopted) == [False, True] and swaps == 1
        assert sorted(links) == [(False, False), (True, True)]

    def test_write_rebases_with_the_primary_that_served_it(self):
        """A concurrent ``swap_ring`` must not change which device's
        clock offset rebases a completed write: the link that served the
        ack rebases it, once, before rule 2 sees it — not whatever the
        new ring would name as primary.  The servers' clocks are 40 ms
        apart, so the other device's offset would miss by about that."""
        ring_a = uniform_ring(2, part_power=4)
        builder = RingBuilder(4, 1)
        builder.add_device(0, weight=1.0)
        builder.add_device(1, weight=8.0)
        ring_b, _ = builder.rebalance()
        obj = next(
            f"swap{i}" for i in range(200)
            if ring_a.primary_for(f"swap{i}") == 1
            and ring_b.primary_for(f"swap{i}") == 0
        )

        async def scenario():
            servers = [
                await NetObjectServer(
                    "127.0.0.1", 0, propagation="none",
                    clock=RebasedClock(offset=skew),
                ).start()
                for skew in (0.02, -0.02)
            ]
            endpoints = {i: ("127.0.0.1", servers[i].port) for i in range(2)}
            try:
                async with RingRouter(0, ring_a, endpoints, delta=1.0) as router:
                    placement_write = router.placement.write

                    async def write_then_swap(obj, value):
                        outcome = await placement_write(obj, value)
                        router.swap_ring(ring_b)  # rebalance racing the write
                        return outcome

                    router.placement.write = write_then_swap
                    alpha = await router.write(obj, "v1")
                    offsets = {
                        dev: client.clock.estimator.offset
                        for dev, client in router.clients.items()
                    }
                    return (
                        alpha, servers[1].engine.store[obj].alpha, offsets,
                        router.engine.cache[obj].version.alpha,
                        router.clients[1].stamps[obj],
                    )
            finally:
                for server in servers:
                    await server.close()

        alpha, native, offsets, cached, stamp = vtime.run(scenario())
        assert alpha == native + (offsets[0] - offsets[1])
        assert abs(alpha - native) > 0.03  # device 0's offset would give ~0
        assert cached == alpha and stamp == (alpha, native)

    def test_a_write_whose_primary_leaves_after_its_ack_is_recorded(self):
        """The primary's ack has landed, the writer has not resumed yet,
        and a ``swap_ring`` drops the primary.  The write is installed on
        both of its devices; it used to raise ``KeyError`` when rebasing
        with the departed device's clock and vanish from the trace."""
        ring = uniform_ring(3, part_power=4, replicas=2)
        obj = next(f"k{i}" for i in range(200) if ring.primary_for(f"k{i}") == 2)
        without_2 = uniform_ring(2, part_power=4, replicas=2)
        without_2.epoch = ring.epoch + 1

        async def scenario():
            servers = [
                await NetObjectServer("127.0.0.1", 0, propagation="none").start()
                for _ in range(3)
            ]
            endpoints = {i: ("127.0.0.1", s.port) for i, s in enumerate(servers)}
            recorder = TraceRecorder()
            try:
                async with RingRouter(
                    0, ring, endpoints, delta=1.0, recorder=recorder
                ) as router:
                    acked = []
                    channel = router.clients[2].channel
                    on_frame = channel.on_frame
                    channel.on_frame = lambda f: (
                        acked.append(f["kind"] == messages.WRITE_ACK), on_frame(f)
                    )
                    writing = asyncio.ensure_future(router.write(obj, "v1"))
                    while not any(acked):
                        await asyncio.sleep(0)
                    router.swap_ring(without_2)  # before the writer resumes
                    alpha = await writing
                    installed = sorted(
                        dev for dev, server in enumerate(servers)
                        if obj in server.engine.store
                    )
                    return alpha, installed, recorder
            finally:
                for server in servers:
                    await server.close()

        alpha, installed, recorder = vtime.run(scenario())
        assert installed == sorted(ring.replicas_for(obj))
        (write,) = recorder.history(validate=False).operations
        assert (write.obj, write.value, write.time) == (obj, "v1", alpha)

    def test_anti_entropy_loop_death_is_surfaced(self):
        ring = uniform_ring(1, part_power=4)

        async def scenario():
            server = await NetObjectServer(
                "127.0.0.1", 0, propagation="none"
            ).start()
            try:
                endpoints = {0: ("127.0.0.1", server.port)}
                async with RingRouter(0, ring, endpoints, delta=1.0) as router:

                    async def broken_repair():
                        raise RuntimeError("repair exploded")

                    router.placement.repair_once = broken_repair
                    router.start_anti_entropy(period=0.01)
                    await asyncio.sleep(0.1)
                    errors = router.stats.anti_entropy_errors
                    # stop_anti_entropy after the death must not raise.
                    await router.stop_anti_entropy()
                    return errors, router.stats.anti_entropy_errors
            finally:
                await server.close()

        errors_live, errors_final = vtime.run(scenario())
        assert errors_live == 1, "the loop death must be counted, not eaten"
        assert errors_final == 1  # stop() does not double-count

    def test_repair_replays_instead_of_reinstalling(self):
        """Anti-entropy re-pushes reuse the originating write's request
        id, so a replica whose acks were merely lost — every attempt of
        the copy's retransmit ladder — ends up with exactly one install
        (the server replays the original alpha)."""
        attempts = MAX_RETRIES + 1
        ring = uniform_ring(2, part_power=4, replicas=2)
        obj = next(
            f"rep{i}" for i in range(100)
            if ring.replicas_for(f"rep{i}")[0] == 0
        )

        async def scenario():
            healthy = await NetObjectServer(
                "127.0.0.1", 0, propagation="none"
            ).start()
            lossy = await NetObjectServer(
                "127.0.0.1", 0, propagation="none",
                fault_factory=lambda: DropFirst({messages.WRITE_ACK}, attempts),
            ).start()
            endpoints = {0: ("127.0.0.1", healthy.port),
                         1: ("127.0.0.1", lossy.port)}
            try:
                # Δ outlasts the ladder: the repair is due after it.
                async with RingRouter(0, ring, endpoints, delta=60.0) as router:
                    await router.write(obj, "v1")
                    queued = len(router.placement.repairs)
                    completed = await router.placement.repair_once()
                    return (
                        queued, completed, router.placement.stats,
                        lossy.engine.requests, lossy.engine.dedup_replays,
                        lossy.engine.store[obj].value,
                    )
            finally:
                await healthy.close()
                await lossy.close()

        (queued, completed, stats, requests, replays, value) = (
            vtime.run(scenario())
        )
        assert queued == 1  # the replica copy's lost ack queued a repair
        assert completed == 1 and stats.repairs_done == 1
        assert requests == 1, "the re-push must replay, not re-execute"
        assert replays == attempts  # every retransmit, then the re-push
        assert value == "v1"
        assert stats.repairs_late == 0
