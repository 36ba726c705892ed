"""repro.cluster: view semantics, failover planning, and the live SWIM
detector.

The unit classes exercise the pure pieces (state precedence, gossip
merge convergence, promotion-first ring surgery).  The ``net`` classes
run real agents over real sockets: convergence, crash detection within
the documented bound, automatic coordinator failover, and — via
pairwise :class:`~repro.net.faults.FaultInjector` partitions — the SWIM
claim this subsystem exists to reproduce: indirect probing keeps a
*link* failure from being declared a *member* failure.  They run in
virtual time (:mod:`repro.sim.vtime`), so the detection bound is
asserted in the agents' own seconds with no scheduling slack; the one
real-loop smoke is ``test_members_converge_alive_and_probe``.
"""

import asyncio
import dataclasses

import pytest

from repro.clocks.rebase import loop_time
from repro.sim import vtime

from repro.cluster import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    ClusterConfig,
    ClusterView,
    MemberInfo,
    SwimAgent,
    cross_ring_moves,
    failover_ring,
    join_ring,
    supersedes,
)
from repro.cluster import swim
from repro.cluster.swim import PROMOTE_ATTEMPTS, RPC_TIMEOUT
from repro.engine import messages
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import PROMOTE, PROMOTE_ACK
from repro.net.local import LocalStack, start_agents
from repro.net.server import NetObjectServer
from repro.ring.ring import Ring, RingBuilder
from repro.store import DurableStore


def make_ring(n=3, replicas=2, part_power=3, epoch=None, addresses=None):
    builder = RingBuilder(part_power, replicas)
    for dev in range(n):
        builder.add_device(
            dev, address=(addresses or {}).get(dev, f"127.0.0.1:{7000 + dev}")
        )
    ring, _ = builder.rebalance()
    if epoch is not None:
        ring = Ring(ring.part_power, ring.replicas, ring.devices,
                    ring.assignment, epoch=epoch)
    return ring


class TestSupersedes:
    def test_alive_needs_strictly_newer_incarnation(self):
        assert not supersedes(ALIVE, 1, ALIVE, 1)
        assert supersedes(ALIVE, 2, ALIVE, 1)
        assert supersedes(ALIVE, 2, SUSPECT, 1)
        assert not supersedes(ALIVE, 1, SUSPECT, 1)  # refutation must bump

    def test_suspect_beats_alive_at_same_incarnation(self):
        assert supersedes(SUSPECT, 1, ALIVE, 1)
        assert not supersedes(SUSPECT, 0, ALIVE, 1)
        assert not supersedes(SUSPECT, 1, SUSPECT, 1)
        assert supersedes(SUSPECT, 2, SUSPECT, 1)

    def test_terminal_states_never_roll_back(self):
        for terminal in (DEAD, LEFT):
            assert supersedes(terminal, 0, ALIVE, 5)
            assert supersedes(terminal, 0, SUSPECT, 5)
            assert not supersedes(ALIVE, 99, terminal, 0)
            assert not supersedes(SUSPECT, 99, terminal, 0)


class TestClusterView:
    def test_merge_is_convergent_regardless_of_delivery_order(self):
        payloads = [
            ClusterView({0: MemberInfo(0, "a:1", 3, ALIVE)}).wire_payload(),
            ClusterView({0: MemberInfo(0, "a:1", 2, SUSPECT)}).wire_payload(),
            ClusterView({0: MemberInfo(0, "a:1", 3, SUSPECT)}).wire_payload(),
        ]
        states = set()
        import itertools

        for order in itertools.permutations(payloads):
            view = ClusterView()
            for payload in order:
                view.merge(payload)
            info = view.get(0)
            states.add((info.state, info.incarnation))
        assert states == {(SUSPECT, 3)}

    def test_merge_advances_ring_epoch_monotonically(self):
        view = ClusterView(ring_epoch=4)
        view.merge({"members": [], "ring_epoch": 2})
        assert view.ring_epoch == 4
        view.merge({"members": [], "ring_epoch": 9})
        assert view.ring_epoch == 9

    def test_coordinator_is_lowest_alive(self):
        view = ClusterView.seed({2: "c:1", 0: "a:1", 1: "b:1"})
        assert view.coordinator() == 0
        view.update(MemberInfo(0, "a:1", 0, DEAD))
        assert view.coordinator() == 1
        view.update(MemberInfo(1, "b:1", 0, SUSPECT))
        assert view.coordinator() == 2

    def test_wire_payload_carries_no_ring_layout(self):
        view = ClusterView.seed({0: "a:1"})
        view.merge({"ring_epoch": 2})
        payload = view.wire_payload()
        assert payload["ring_epoch"] == 2
        assert "ring" not in payload


class TestFailoverRing:
    def test_surviving_slot0_replica_is_promoted_without_moves(self):
        # 3 devices, replicas == devices: every survivor holds every
        # partition already — promotion only, zero copies.
        ring = make_ring(3, replicas=3)
        primary = ring.assignment[0][0]
        plan = failover_ring(ring, [primary])
        assert plan.ring.epoch == ring.epoch + 1
        assert primary not in plan.ring.devices
        assert plan.moves == ()
        assert plan.ring.replicas == 2
        for slots in plan.ring.assignment:
            assert primary not in slots
        # The promoted devices were slot-1 replicas of the dead primary.
        assert all(dev in ring.devices for dev in plan.promoted)

    def test_refill_moves_are_sourced_from_survivors(self):
        ring = make_ring(4, replicas=2)
        dead = ring.assignment[0][0]
        plan = failover_ring(ring, [dead])
        assert plan.ring.replicas == 2
        for move in plan.moves:
            assert move.src != dead
            assert move.src in plan.ring.devices
            assert move.dst in plan.ring.devices
        for slots in plan.ring.assignment:
            assert len(slots) == 2 and dead not in slots

    def test_dead_ids_not_in_ring_are_a_noop(self):
        ring = make_ring(3)
        plan = failover_ring(ring, [99])
        assert plan.ring is ring
        assert plan.promoted == ()

    def test_no_survivors_raises(self):
        ring = make_ring(2, replicas=2)
        with pytest.raises(ValueError):
            failover_ring(ring, [0, 1])


class TestJoinRing:
    def test_same_shape_join_uses_minimal_moves(self):
        ring = make_ring(3, replicas=2)
        plan = join_ring(ring, 3, "127.0.0.1:7003")
        assert 3 in plan.ring.devices
        assert plan.ring.devices[3].address == "127.0.0.1:7003"
        assert plan.ring.epoch > ring.epoch
        # Every move installs the joiner somewhere; sources survive.
        for move in plan.moves:
            assert move.src in ring.devices

    def test_replica_restoring_join_after_degraded_failover(self):
        ring = make_ring(3, replicas=3)
        degraded = failover_ring(ring, [ring.assignment[0][0]]).ring
        assert degraded.replicas == 2
        plan = join_ring(degraded, 5, "127.0.0.1:7005", replicas=3)
        assert plan.ring.replicas == 3
        assert 5 in plan.ring.devices
        for slots in plan.ring.assignment:
            assert len(slots) == 3
        for move in plan.moves:
            assert move.src in degraded.devices

    def test_every_join_copy_is_read_from_the_partition_primary(self):
        """Same-shape or replica-restoring, a join plan copies each moved
        partition from its primary, the one holder certain to have every
        acked write, to each device new to it — and to no other."""
        joins = []
        for replicas in (1, 2, 3):
            for devices in range(max(replicas, 2), 7):
                for part_power in (3, 5, 8):
                    ring = make_ring(devices, replicas, part_power)
                    joins.append((ring, join_ring(ring, devices, "h:1")))
            if replicas > 1:
                for part_power in (3, 5, 8):
                    full = make_ring(replicas, replicas, part_power)
                    ring = failover_ring(full, [0]).ring
                    joins.append(
                        (ring, join_ring(ring, 9, "h:1", replicas=replicas))
                    )
        assert sum(len(plan.moves) for _, plan in joins) > len(joins)
        for ring, plan in joins:
            for move in plan.moves:
                assert move.src == ring.assignment[move.partition][0]
            assert {(m.partition, m.dst) for m in plan.moves} == {
                (part, dev)
                for part, row in enumerate(plan.ring.assignment)
                for dev in row if dev not in ring.assignment[part]
            }

    def test_a_replica_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="replicas"):
            join_ring(make_ring(3), 3, "h:1", replicas=0)

    def test_cross_ring_moves_require_same_partition_count(self):
        with pytest.raises(ValueError):
            cross_ring_moves(make_ring(3, part_power=3), make_ring(3, part_power=4))


class TestClusterConfig:
    def test_detection_bound_formula(self):
        config = ClusterConfig(probe_period=0.2, suspect_timeout=0.6)
        assert config.detection_bound == pytest.approx(3 * 0.2 + 0.6)

    def test_probe_timeout_defaults_to_half_period(self):
        assert ClusterConfig(probe_period=0.4).probe_timeout == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(probe_period=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(suspect_timeout=-1.0)


class DropWhileCut(FaultInjector):
    """Drop every outbound frame of ``kind`` while ``cut`` is set."""

    def __init__(self, kind):
        super().__init__(FaultConfig(), kinds={kind})
        self.cut = False

    def plan(self, kind):
        if self.cut and self.applies_to(kind):
            self.stats.dropped += 1
            return []
        return super().plan(kind)


async def start_members(n, config, *, replicas=None, link_faults=None,
                        fault_factory=None, assignment=None):
    """n servers + agents sharing one seed ring (the builder's layout, or
    ``assignment``); returns (servers, agents, ring)."""
    servers = {}
    for dev in range(n):
        server = NetObjectServer(
            "127.0.0.1", 0, propagation="none", fault_factory=fault_factory,
        )
        await server.start()
        servers[dev] = server
    builder = RingBuilder(3, replicas if replicas is not None else n)
    for dev, server in servers.items():
        builder.add_device(dev, address=server.address)
    ring, _ = builder.rebalance()
    if assignment is not None:
        ring = Ring(ring.part_power, ring.replicas, ring.devices, assignment,
                    epoch=ring.epoch)
    addresses = {dev: server.address for dev, server in servers.items()}
    agents = {}
    for dev, server in servers.items():
        server.set_ring(ring.as_dict())
        agent = SwimAgent(
            dev, server, ClusterView.seed(addresses), config,
            link_faults=(link_faults(dev) if link_faults else None),
        )
        await agent.start()
        agents[dev] = agent
    return servers, agents, ring


async def stop_members(servers, agents):
    for agent in agents.values():
        await agent.stop()
    for server in servers.values():
        await server.close()


async def wait_until(predicate, deadline, period=0.05):
    while loop_time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(period)
    return predicate()


@pytest.mark.net
class TestSwimLive:
    CONFIG = ClusterConfig(probe_period=0.1, suspect_timeout=0.3, seed=11)

    def test_members_converge_alive_and_probe(self):
        async def scenario():
            servers, agents, _ = await start_members(3, self.CONFIG)
            try:
                assert await wait_until(
                    lambda: all(
                        a.view.ids(ALIVE) == [0, 1, 2]
                        for a in agents.values()
                    ),
                    loop_time() + 5.0,
                )
                await asyncio.sleep(3 * self.CONFIG.probe_period)
                assert all(a.probes_sent > 0 for a in agents.values())
                assert all(a.probes_failed == 0 for a in agents.values())
            finally:
                await stop_members(servers, agents)

        asyncio.run(scenario())  # the real-loop smoke: wall-clock probing

    def test_crash_is_detected_within_bound_and_failed_over(self):
        async def scenario():
            servers, agents, ring = await start_members(3, self.CONFIG)
            victim = ring.assignment[0][0]
            try:
                assert await wait_until(
                    lambda: all(
                        a.view.ids(ALIVE) == [0, 1, 2]
                        for a in agents.values()
                    ),
                    loop_time() + 5.0,
                )
                killed_at = loop_time()
                await servers[victim].abort()
                await agents[victim].stop()
                survivors = {d: a for d, a in agents.items() if d != victim}
                assert await wait_until(
                    lambda: all(
                        victim in a.view.ids(DEAD)
                        and a.server.engine.epoch == ring.epoch + 1
                        for a in survivors.values()
                    ),
                    killed_at + self.CONFIG.detection_bound + 5.0,
                ), {d: a.view.wire_payload() for d, a in survivors.items()}
                detected = min(
                    a.dead_detected[victim] for a in survivors.values()
                    if victim in a.dead_detected
                )
                assert detected - killed_at <= self.CONFIG.detection_bound
                # Exactly one coordinator drove exactly one failover,
                # and every new primary ran the promotion rule.
                assert sum(a.failovers for a in survivors.values()) == 1
                assert sum(
                    s.engine.promotions for d, s in servers.items() if d != victim
                ) >= 1
                for agent in survivors.values():
                    new_ring = Ring.from_dict(agent.server.engine.ring)
                    assert victim not in new_ring.devices
                    assert new_ring.epoch == ring.epoch + 1
            finally:
                await stop_members(
                    {d: s for d, s in servers.items() if d != victim},
                    {d: a for d, a in agents.items() if d != victim},
                )

        vtime.run(scenario())

    @pytest.mark.parametrize("lost", [PROMOTE, PROMOTE_ACK])
    def test_the_cutover_waits_for_every_promote_ack(self, lost):
        """A ``promote`` that is never acknowledged publishes nothing,
        whether the frame is lost or its ack is: the coordinator promotes
        itself, asks again, gives the plan up, and plans again a probe
        period later.  No member — the target included, on its server or
        in its gossiped view — installs the new ring epoch until every
        promoted member, the coordinator too, has run the promotion rule."""
        config = self.CONFIG
        # Member 2 is the primary of rows whose survivors differ, so its
        # failover promotes member 0 (the coordinator) and member 1.
        assignment = ((2, 0), (2, 1), (0, 1), (1, 0)) * 2
        victim, promoted = 2, (0, 1)
        cut = DropWhileCut(lost)  # only member 0 sends promote, only 1 acks

        async def scenario():
            servers, agents, ring = await start_members(
                3, config, replicas=2, assignment=assignment,
                link_faults=lambda member: lambda peer: cut,
                fault_factory=lambda: cut,
            )
            assert failover_ring(ring, [victim]).promoted == promoted
            survivors = {d: a for d, a in agents.items() if d != victim}

            def promotions():
                return [servers[d].engine.promotions for d in promoted]

            installs = []  # (member, epoch, promotions() then)
            for dev, server in servers.items():
                def install(ring_dict, dev=dev, inner=server.set_ring):
                    installs.append(
                        (dev, int(ring_dict["epoch"]), promotions())
                    )
                    return inner(ring_dict)

                server.set_ring = install
            cut.cut = True
            try:
                assert await wait_until(
                    lambda: all(
                        a.view.ids(ALIVE) == [0, 1, 2]
                        for a in agents.values()
                    ),
                    loop_time() + 5.0,
                )
                await servers[victim].abort()
                await agents[victim].stop()
                # Two whole rounds of asks go unanswered.
                await asyncio.sleep(
                    config.detection_bound + 2 * PROMOTE_ATTEMPTS * RPC_TIMEOUT + 3.0
                )
                stalled = {
                    (a.server.engine.epoch, a.view.ring_epoch)
                    for a in survivors.values()
                }
                promoted_while_cut = promotions()
                cut.cut = False
                assert await wait_until(
                    lambda: all(
                        a.server.engine.epoch == ring.epoch + 1
                        for a in survivors.values()
                    ),
                    loop_time() + 10.0,
                ), {d: a.view.wire_payload() for d, a in survivors.items()}
                return (ring.epoch, stalled, promoted_while_cut, installs,
                        sum(a.failovers for a in survivors.values()))
            finally:
                await stop_members(
                    {d: s for d, s in servers.items() if d != victim},
                    survivors,
                )

        epoch, stalled, promoted_while_cut, installs, failovers = vtime.run(
            scenario()
        )
        assert stalled == {(epoch, epoch)}
        assert cut.stats.dropped >= 2 * PROMOTE_ATTEMPTS  # asked, gave up, asked again
        coordinator_runs, target_runs = promoted_while_cut
        assert coordinator_runs >= 2  # once a round
        # The target ran the rule on every promote that reached it.
        assert target_runs == (0 if lost == PROMOTE else cut.stats.dropped)
        cutover = [runs for _, new, runs in installs if new > epoch]
        assert cutover and all(min(runs) >= 1 for runs in cutover)
        assert failovers == 1

    def test_auto_join_rebalances_onto_new_member(self):
        async def scenario():
            servers, agents, ring = await start_members(3, self.CONFIG)
            joiner_server = NetObjectServer("127.0.0.1", 0, propagation="none")
            await joiner_server.start()
            joiner = None
            try:
                addresses = {
                    dev: server.address for dev, server in servers.items()
                }
                addresses[3] = joiner_server.address
                joiner_server.set_ring(ring.as_dict())
                joiner = SwimAgent(
                    3, joiner_server, ClusterView.seed(addresses), self.CONFIG,
                )
                await joiner.start()
                everyone = {**agents, 3: joiner}
                assert await wait_until(
                    lambda: all(
                        a.server.engine.ring is not None
                        and 3 in Ring.from_dict(a.server.engine.ring).devices
                        and a.server.engine.epoch > ring.epoch
                        for a in everyone.values()
                    ),
                    loop_time() + 8.0,
                ), {d: a.server.engine.epoch for d, a in everyone.items()}
            finally:
                if joiner is not None:
                    await joiner.stop()
                await joiner_server.close()
                await stop_members(servers, agents)

        vtime.run(scenario())

    def test_a_join_after_a_degraded_failover_restores_the_replicas(self):
        async def scenario():
            servers, agents, ring = await start_members(2, self.CONFIG)
            assert ring.replicas == 2
            joiner_server = NetObjectServer("127.0.0.1", 0, propagation="none")
            await joiner_server.start()
            joiner = None
            try:
                await servers[1].abort()
                await agents[1].stop()
                survivor = agents[0]
                assert await wait_until(
                    lambda: survivor.server.engine.epoch == ring.epoch + 1,
                    loop_time() + self.CONFIG.detection_bound + 5.0,
                )
                degraded = Ring.from_dict(survivor.server.engine.ring)
                assert degraded.replicas == 1
                joiner_server.set_ring(degraded.as_dict())
                joiner = SwimAgent(
                    2, joiner_server,
                    ClusterView.seed(
                        {0: servers[0].address, 2: joiner_server.address}
                    ),
                    self.CONFIG,
                )
                await joiner.start()
                assert await wait_until(
                    lambda: survivor.server.engine.epoch > degraded.epoch,
                    loop_time() + 8.0,
                )
                in_force = Ring.from_dict(survivor.server.engine.ring)
                assert sorted(in_force.devices) == [0, 2]
                assert in_force.replicas == 2
                assert all(
                    sorted(slots) == [0, 2] for slots in in_force.assignment
                )
            finally:
                if joiner is not None:
                    await joiner.stop()
                await joiner_server.close()
                await stop_members({0: servers[0]}, {0: agents[0]})

        vtime.run(scenario())


    def test_a_crashed_durable_member_restarts_into_the_ring_it_left(
        self, tmp_path
    ):
        """A joined member crashes (no clean close) and restarts on its
        port and store directory, its agent handed the stack's starting
        epoch-1 ring as a fresh ``start_agents`` would: it resumes the
        epoch-2 layout it had acknowledged, replica count included."""
        async def scenario():
            async with LocalStack(
                servers=3, replicas=2, part_power=3, store_root=str(tmp_path),
                cluster=ClusterConfig(0.1, 0.3),
            ) as stack:
                joiner = await stack.add_server()
                assert await wait_until(
                    lambda: all(s.engine.epoch == 2
                                for s in stack.servers.values()),
                    loop_time() + 8.0,
                )
                layout = stack.servers[joiner].engine.ring
                port = stack.servers[joiner].port
                await stack.servers[joiner].abort()
                await stack.agents[joiner].stop()
                restarted = NetObjectServer(
                    "127.0.0.1", port, propagation=stack.propagation,
                    store=DurableStore(str(tmp_path / f"dev{joiner}")),
                )
                stack.servers[joiner] = restarted  # closed with the stack
                await restarted.start()
                peers = {d: s.address for d, s in stack.servers.items()
                         if d != joiner}
                stack.agents.update(await start_agents(
                    {joiner: restarted}, stack.ring, stack.cluster,
                    peers=peers,
                ))
                await asyncio.sleep(2.0)
                return (stack.ring.epoch, layout, restarted.engine.ring,
                        stack.agents[joiner].replicas)

        started_at, layout, ring, replicas = vtime.run(scenario())
        assert started_at == 1
        assert ring["epoch"] == 2 and ring == layout
        assert replicas == 2


@pytest.mark.net
class TestHandoffCopy:
    """A donor copies each moved object once, with one attempt and one
    timeout; a copy that fails gives the whole plan up."""

    #: No probe round fires within a test: the plan is driven by hand.
    CONFIG = ClusterConfig(probe_period=1000.0, seed=11)

    @pytest.mark.parametrize("donor", [0, 1])  # the coordinator, a remote one
    @pytest.mark.parametrize("failure", ["refused", "unanswered"])
    def test_a_failed_copy_publishes_no_epoch(self, donor, failure):
        cut = DropWhileCut(messages.WRITE_ACK)
        cut.cut = True

        async def scenario():
            servers, agents, ring = await start_members(
                2, self.CONFIG, replicas=1
            )
            joiner = await NetObjectServer(
                "127.0.0.1", 0, propagation="none", fault_factory=lambda: cut,
            ).start()
            if failure == "refused":
                await joiner.close()
            try:
                for agent in agents.values():
                    agent.view.update(
                        MemberInfo(2, joiner.address), now=loop_time()
                    )
                objects = [f"o{i}" for i in range(64)]
                for obj in objects:
                    servers[ring.replicas_for(obj)[0]].engine.install(
                        obj, f"{obj}.v1", 1
                    )
                plan = join_ring(ring, 2, joiner.address)
                moves = tuple(m for m in plan.moves if m.src == donor)
                assert moves
                # Nothing to promote: only the copy can give the plan up.
                plan = dataclasses.replace(plan, promoted=(), moves=moves)
                given_up = await agents[0]._execute_plan(plan, "join")
                epochs = {(a.server.engine.epoch, a.view.ring_epoch)
                          for a in agents.values()}
                published = None
                if failure == "unanswered":
                    cut.cut = False
                    published = await agents[0]._execute_plan(plan, "join")
                copied = sorted(joiner.engine.store)
                return ring, plan, given_up, epochs, published, copied
            finally:
                await stop_members(servers, agents)
                await joiner.close()

        ring, plan, given_up, epochs, published, copied = vtime.run(scenario())
        assert given_up is False
        assert epochs == {(ring.epoch, ring.epoch)}
        if failure == "unanswered":
            # The same plan, its copies answered, cuts over, and the
            # joiner then holds every object of the moved partitions.
            assert published is True
            moved = {m.partition for m in plan.moves}
            assert copied == sorted(
                f"o{i}" for i in range(64)
                if ring.partition_for(f"o{i}") in moved
            )

    @pytest.mark.parametrize("donor", [0, 1])  # the coordinator, a remote one
    def test_copies_slower_than_the_budget_one_by_one_still_publish(
        self, donor
    ):
        """Each of the joiner's acks takes ``ack_delay``: one copy at a
        time, the donor's copies would outlast its whole budget, but
        ``HANDOFF_WINDOW`` in flight finish well inside it."""
        ack_delay = 0.1
        slow = FaultInjector(
            FaultConfig(delay=ack_delay), kinds={messages.WRITE_ACK}
        )

        async def scenario():
            servers, agents, ring = await start_members(
                2, self.CONFIG, replicas=1
            )
            joiner = await NetObjectServer(
                "127.0.0.1", 0, propagation="none",
                fault_factory=lambda: slow,
            ).start()
            try:
                for agent in agents.values():
                    agent.view.update(
                        MemberInfo(2, joiner.address), now=loop_time()
                    )
                objects = [f"o{i}" for i in range(400)]
                for obj in objects:
                    servers[ring.replicas_for(obj)[0]].engine.install(
                        obj, f"{obj}.v1", 1
                    )
                plan = join_ring(ring, 2, joiner.address)
                moves = tuple(m for m in plan.moves if m.src == donor)
                plan = dataclasses.replace(plan, promoted=(), moves=moves)
                moved = {m.partition for m in moves}
                expected = sorted(
                    obj for obj in objects if ring.partition_for(obj) in moved
                )
                started = loop_time()
                published = await agents[0]._execute_plan(plan, "join")
                elapsed = loop_time() - started
                return (moves, expected, published, elapsed,
                        sorted(joiner.engine.store),
                        agents[0].view.ring_epoch == plan.ring.epoch)
            finally:
                await stop_members(servers, agents)
                await joiner.close()

        moves, expected, published, elapsed, copied, cut_over = vtime.run(
            scenario()
        )
        assert moves
        budget = swim.handoff_budget(len(moves))
        assert len(expected) * ack_delay > budget + RPC_TIMEOUT
        assert published is True and cut_over
        assert copied == expected
        groups = -(-len(expected) // swim.HANDOFF_WINDOW)
        assert elapsed < groups * ack_delay + 0.5 < budget


@pytest.mark.net
class TestAgentLink:
    def test_a_link_whose_handshake_fails_leaves_no_socket_behind(self):
        """The event loop keeps a registered transport alive, so a link
        that never formed is not collected: it has to be dropped."""
        from repro.net.channel import Channel
        from repro.net.framing import listen

        async def scenario():
            ended = asyncio.get_running_loop().create_future()

            async def mute_member(conn):
                try:
                    await conn.recv()  # the hello, never answered
                    ended.set_result(await conn.recv())
                except ConnectionError as exc:
                    ended.set_result(exc)
                finally:
                    await conn.close()

            listener = await listen(mute_member, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            link = Channel(0, "127.0.0.1", port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await link.open(0.1)
                assert not link.connected
                return await asyncio.wait_for(ended, 1.0)
            finally:
                listener.close()
                await listener.wait_closed()

        end = vtime.run(scenario())
        assert end is None or isinstance(end, ConnectionError)  # EOF or a reset

    def test_concurrent_askers_of_one_peer_share_one_connection(self):
        """The probe loop, the ping-req tasks, ring catch-up and the
        failover RPCs all ask for links concurrently.  Two of them
        dialling the same peer used to end with the later one closing the
        link the earlier had already been handed."""
        config = ClusterConfig(probe_period=30.0)

        async def scenario():
            servers, agents, _ = await start_members(2, config)
            try:
                a, b = await asyncio.gather(
                    agents[0]._link(1), agents[0]._link(1)
                )
                return a is b, a.connected, servers[1].connections_accepted
            finally:
                await stop_members(servers, agents)

        assert vtime.run(scenario()) == (True, True, 1)

    @pytest.mark.parametrize("failure", ["timeout", "refused", "error reply"])
    def test_ask_turns_every_failure_into_none_and_probing_goes_on(
        self, failure
    ):
        from repro.net.framing import HANDOFF, PING

        from tests.test_net_channel import peer

        config = ClusterConfig(probe_period=0.05)

        async def answer_nothing(conn, frame):
            pass

        async def scenario():
            servers, agents, _ = await start_members(1, config)
            agent = agents[0]
            bare = await NetObjectServer("127.0.0.1", 0).start()  # no agent
            try:
                async with peer(answer_nothing) as (port, _):
                    frame = {"kind": PING, "from": 0}
                    if failure == "refused":
                        port = bare.port
                        await bare.close()
                    elif failure == "error reply":
                        port, frame = bare.port, {"kind": HANDOFF, "moves": []}
                    agent.view.update(MemberInfo(1, f"127.0.0.1:{port}"), now=0.0)
                    reply = await agent._ask(1, frame, 0.1)
                    probed = agent.probes_sent
                    await wait_until(
                        lambda: agent.probes_sent > probed,
                        loop_time() + 2.0,
                    )
                    return reply, agent.probes_sent - probed, agent._task.done()
            finally:
                await stop_members(servers, agents)
                await bare.close()

        reply, more_probes, loop_ended = vtime.run(scenario())
        assert reply is None
        assert more_probes > 0 and not loop_ended


@pytest.mark.net
class TestAgentStop:
    def test_stop_returns_when_a_probe_swallows_its_cancellation(self):
        """``asyncio.wait_for`` before Python 3.12 returns its result
        instead of raising when the cancellation lands as its future
        completes; a probe round that loses a cancellation that way must
        not make ``stop()`` wait for a loop that never ends (it did, in
        about one kill-the-primary soak in two hundred)."""

        async def scenario():
            servers, agents, _ = await start_members(2, TestSwimLive.CONFIG)
            agent = agents[0]
            probing = asyncio.Event()

            async def probe_that_swallows(target):
                probing.set()
                try:
                    await asyncio.sleep(30)
                except asyncio.CancelledError:
                    pass  # what wait_for does to a reply that just arrived

            agent._probe = probe_that_swallows
            try:
                await asyncio.wait_for(probing.wait(), 2.0)
                await asyncio.wait_for(agent.stop(), 2.0)
            finally:
                await stop_members(servers, agents)

        vtime.run(scenario())


@pytest.mark.net
class TestIndirectProbing:
    """The false-positive suppression argument: sever one pairwise link
    (both directions — neither endpoint can reach the other directly)
    and the proxied ping-req keeps both members alive; without proxies
    the same cut kills one of them."""

    def make_link_faults(self, cut):
        """Per-member ``link_faults`` factory severing exactly the
        member pairs in ``cut`` (frozenset pairs), both directions."""
        injectors = {}

        def for_member(member):
            def lookup(peer):
                pair = frozenset((member, peer))
                if pair not in cut:
                    return None
                injector = injectors.setdefault(
                    (member, peer), FaultInjector(FaultConfig())
                )
                injector.partition("both")
                return injector

            return lookup

        return for_member

    def test_severed_pair_survives_via_proxies(self):
        config = ClusterConfig(
            probe_period=0.1, suspect_timeout=0.3, seed=5,
        )

        async def scenario():
            servers, agents, _ = await start_members(
                3, config,
                link_faults=self.make_link_faults({frozenset((0, 1))}),
            )
            try:
                # Several full detection windows with the 0-1 link dark:
                # the proxied path through member 2 must keep everyone
                # alive — a suspicion may flash, but refutation clears
                # it and nobody ever becomes dead.
                await asyncio.sleep(3 * config.detection_bound)
                for agent in agents.values():
                    assert agent.view.ids(DEAD) == [], agent.view.wire_payload()
                    assert agent.view.ids(LEFT) == []
                assert await wait_until(
                    lambda: all(
                        a.view.ids(ALIVE) == [0, 1, 2]
                        for a in agents.values()
                    ),
                    loop_time() + 3.0,
                ), {d: a.view.wire_payload() for d, a in agents.items()}
            finally:
                await stop_members(servers, agents)

        vtime.run(scenario())

    def test_without_proxies_the_same_cut_is_a_false_positive(
        self, monkeypatch
    ):
        # suspect_timeout shorter than a refutation's gossip round trip
        # (suspicion → the victim → back, >= 2-3 probe periods), so the
        # direct-only detector reliably buries a live member.
        monkeypatch.setattr(swim, "INDIRECT_PROBES", 0)
        config = ClusterConfig(probe_period=0.1, suspect_timeout=0.15, seed=5)

        async def scenario():
            servers, agents, _ = await start_members(
                3, config,
                link_faults=self.make_link_faults({frozenset((0, 1))}),
            )
            try:
                assert await wait_until(
                    lambda: any(
                        set(a.view.ids(DEAD)) & {0, 1}
                        for a in agents.values()
                    ),
                    loop_time() + 4 * config.detection_bound + 3.0,
                ), "a direct-only detector never false-positived a live member"
            finally:
                await stop_members(servers, agents)

        vtime.run(scenario())


@pytest.mark.net
class TestFailoverEndToEnd:
    """The issue's acceptance bar: SIGKILL-equivalent primary crash in
    the middle of a live durable soak, automatic detection + promotion
    with no manual ``swap_ring``, and a merged client+WAL history that
    the offline timed checkers accept."""

    def test_kill_primary_midsoak_checker_clean(self, tmp_path):
        from repro.checkers import check_tcc, check_tsc, history_from_wal
        from repro.core.history import History
        from repro.net.workloads import ring_cluster

        report = vtime.run(
            ring_cluster(
                n_servers=3,
                replicas=2,
                n_clients=2,
                rounds=20,
                seed=13,
                cluster=True,
                kill_primary_midway=True,
                probe_period=0.1,
                suspect_timeout=0.3,
                store_root=str(tmp_path),
                fsync="always",
            )
        )

        # -- detection and recovery happened, automatically, in bound.
        assert report.fault.killed_device is not None
        assert report.fault.detection_bound is not None
        assert report.fault.time_to_detect is not None, "victim was never declared DEAD"
        assert report.fault.time_to_recover is not None, "no write re-acked after the kill"
        assert report.fault.time_to_detect <= report.fault.detection_bound, (
            report.fault.time_to_detect, report.fault.detection_bound)
        assert report.fault.promotions >= 1
        assert report.fault.failover_epoch is not None
        assert report.fault.failover_epoch > 1
        assert report.fault.killed_device not in report.ring.device_ids()

        # -- merge the clients' trace with every server's durable WAL
        # history (the victim's included: its acked writes are ground
        # truth) and prove timed consistency offline.  A quorum write is
        # logged by every replica — and re-logged by handoff replay — so
        # writes dedup by (obj, value), keeping the *earliest* record:
        # that is the origin write, the later copies its propagation.
        # The generous delta then absorbs the propagation lag itself.
        # The client trace wins for writes present in both (its
        # timestamps are consistent with its own reads' program order);
        # WAL entries contribute only the writes no client trace holds —
        # the ones whose acknowledgement the crash ate.
        operations = list(report.history.operations)
        seen = {
            (op.obj, op.value) for op in operations if op.is_write
        }
        for dev in range(3):
            store_dir = tmp_path / f"dev{dev}"
            if not store_dir.is_dir():
                continue
            for op in history_from_wal(str(store_dir)).operations:
                key = (op.obj, op.value)
                if op.is_write and key not in seen:
                    seen.add(key)
                    operations.append(op)
        merged = History(operations, initial_value=0)
        assert any(op.is_write for op in merged.operations)
        result = check_tsc(merged, delta=5.0)
        assert result.satisfied, result.violation
        result2 = check_tcc(merged, delta=5.0, epsilon=5.0)
        assert result2.satisfied, result2.violation

    #: (probe_period, suspect_timeout): the soak default, a snappier
    #: detector and a lazier one — bounds 0.6 s, 0.24 s, 1.45 s.
    @pytest.mark.parametrize(
        "probe_period, suspect_timeout", [(0.1, 0.3), (0.05, 0.09), (0.3, 0.55)]
    )
    def test_detection_meets_the_bound_at_every_cadence(
        self, probe_period, suspect_timeout
    ):
        """``detection_bound = 3 * probe_period + suspect_timeout`` is the
        blind window the promotion rule substitutes for delta, so it is
        asserted as stated: virtual seconds, no allowance for the host."""
        from repro.net.workloads import ring_cluster

        fault = vtime.run(
            ring_cluster(
                n_servers=3, replicas=2, n_clients=2, rounds=20, delta=0.4,
                seed=13, cluster=True, kill_primary_midway=True,
                probe_period=probe_period, suspect_timeout=suspect_timeout,
            )
        ).fault
        assert fault.detection_bound == pytest.approx(
            3 * probe_period + suspect_timeout)
        assert fault.time_to_detect is not None, "victim never declared DEAD"
        assert fault.time_to_detect <= fault.detection_bound
        # Recovery is detection plus the coordinator's failover, the epoch
        # cutover and the router's stale-epoch refresh: it happened, after.
        assert fault.time_to_recover is not None, "no write re-acked"
        assert fault.time_to_recover >= fault.time_to_detect
        assert fault.promotions >= 1
        assert fault.failover_epoch is not None and fault.failover_epoch > 1
