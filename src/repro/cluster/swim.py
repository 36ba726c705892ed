"""SWIM-style failure detection with gossip piggybacking and automatic,
epoch-driven failover.

One :class:`SwimAgent` embeds in each :class:`~repro.net.server.
NetObjectServer` (``server.agent``); agent traffic rides the server's
normal framed-TCP port, so a member needs no second listener and the
probe path exercises exactly the socket the data plane lives on — a
member that can serve a probe can serve a write.

**The protocol** (Das, Gupta & Motivala's SWIM, adapted):

* every ``probe_period`` the agent pings the next member of a shuffled
  rotation (``ping`` → ``ping-ack``, bounded by ``probe_timeout``);
* a failed direct probe is retried *indirectly* through ``k`` proxy
  members (``ping-req`` → proxy pings the target → ``ping-req-ack``),
  which disambiguates a dead member from a dead or half-open *link* —
  the case :class:`~repro.net.faults.FaultInjector` asymmetric
  partitions reproduce and naive heartbeating gets wrong;
* a member failing both becomes **suspect**; after ``suspect_timeout``
  without refutation it is declared **dead** (terminal);
* a member learning it is suspected *refutes*: it re-announces itself
  alive at ``incarnation + 1``, which supersedes the suspicion wherever
  the gossip spread it (:mod:`repro.cluster.view` precedence);
* every probe frame piggybacks the sender's
  :class:`~repro.cluster.view.ClusterView` wire payload — membership
  spreads epidemically with zero dedicated gossip traffic.

**Detection latency as a Δ term.**  A member crashing right after its
last probe answer is discovered no later than::

    detection_bound = 3 * probe_period + suspect_timeout

(one period until its next probe slot, one for the direct+indirect round
to fail, one slack for a serialized in-flight probe, then the suspicion
must age out).  This bound is exactly the Δ the coordinator passes to
:meth:`~repro.engine.ServerEngine.promote` — the new primary's
blind window — and the bound the tier-1 cadence sweep asserts in
virtual seconds, without slack (docs/CLUSTER.md).

**Failover.**  On a dead transition the *coordinator* (lowest-id alive
member — deterministic over a converged view, no election) runs
:func:`~repro.cluster.failover.failover_ring`: handoff copies to the
refilled replica rows, ``promote`` frames to the devices gaining
primaries, then installs the ``epoch + 1`` ring and lets gossip announce
it; routers and members fetch the layout on seeing the higher epoch.
Joins run the same dance through :func:`~repro.cluster.failover.
join_ring`.  Each donor copies from its own store, one ``write`` frame
per object and move, under the agent's one rule: one attempt, one
timeout.  The copies go ``HANDOFF_WINDOW`` at a time, so a holder logs
each group with one sync, and a donor — the coordinator or a remote
member — has :func:`handoff_budget` for all of them.  A failed copy or
handoff, one out of time, or a ``promote`` unanswered
``PROMOTE_ATTEMPTS`` times, gives the whole plan up — nothing is
published — and the coordinator plans again a probe period later; the
plan is the unit of retry.
"""

from __future__ import annotations

import asyncio
import logging
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clocks.rebase import loop_time
from repro.engine import messages
from repro.net.channel import Channel
from repro.net.faults import FaultInjector
from repro.net.framing import (
    ERROR,
    HANDOFF,
    HANDOFF_ACK,
    PING,
    PING_ACK,
    PING_REQ,
    PING_REQ_ACK,
    PROMOTE,
    RING_FETCH,
    FrameError,
)
from repro.cluster.failover import (
    FailoverPlan, PartitionMove, failover_ring, join_ring,
)
from repro.cluster.view import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    ClusterView,
    MemberInfo,
)
from repro.ring.ring import Ring

logger = logging.getLogger(__name__)

#: Agent connections identify as ``CLUSTER_CLIENT_BASE + member_id`` so
#: their request ids can never collide with a real client's entries in
#: the server's exactly-once reply cache.
CLUSTER_CLIENT_BASE = 1_000_000

#: Bound on one copy, promote or ring-fetch RPC (a whole handoff has
#: :func:`handoff_budget`).
RPC_TIMEOUT = 2.0
#: Asks of one ``promote`` before the coordinator gives the plan up.
PROMOTE_ATTEMPTS = 3
#: Copies a handoff donor has in flight at once.
HANDOFF_WINDOW = 32
#: k: proxy members asked to probe a target in one ping-req round.
INDIRECT_PROBES = 2


def handoff_budget(moves: int) -> float:
    """The seconds a donor has for all the copies of its ``moves``:
    one ``RPC_TIMEOUT`` per move, since a move's objects go
    ``HANDOFF_WINDOW`` at a time, a round trip and a sync per group.
    The donor stops copying when they are up, so a coordinator that
    gave up the plan leaves no copy running."""
    return RPC_TIMEOUT * max(1, moves)


@dataclass
class ClusterConfig:
    """Tuning knobs of the failure detector (CLI: ``--probe-period``,
    ``--suspect-timeout``)."""

    probe_period: float = 0.2
    suspect_timeout: float = 0.6
    seed: Optional[int] = None  #: rotation-shuffle determinism for tests

    def __post_init__(self) -> None:
        if self.probe_period <= 0:
            raise ValueError(
                f"probe_period must be positive, got {self.probe_period}"
            )
        if self.suspect_timeout < 0:
            raise ValueError(
                f"suspect_timeout must be non-negative, got {self.suspect_timeout}"
            )

    @property
    def probe_timeout(self) -> float:
        """Per-attempt bound on a ping round trip: half the probe period,
        so a serialized direct+indirect round never eats a whole extra
        probe slot."""
        return self.probe_period / 2.0

    @property
    def detection_bound(self) -> float:
        """Worst-case crash-to-dead latency; the Δ of a promotion's
        blind window."""
        return 3.0 * self.probe_period + self.suspect_timeout


class SwimAgent:
    """The failure detector + failover driver of one cluster member.

    ``member_id`` doubles as the ring device id.  ``link_faults`` maps a
    peer id to the :class:`FaultInjector` for this member's link to that
    peer (tests sever individual pairs, possibly one direction only).
    ``instruments`` is a
    :class:`~repro.obs.instruments.ClusterInstruments`.
    """

    def __init__(
        self,
        member_id: int,
        server: Any,
        view: ClusterView,
        config: Optional[ClusterConfig] = None,
        *,
        link_faults: Optional[Callable[[int], Optional[FaultInjector]]] = None,
        instruments: Optional[Any] = None,
    ) -> None:
        self.member_id = member_id
        self.server = server
        self.view = view
        self.config = config or ClusterConfig()
        self.link_faults = link_faults
        self.instruments = instruments
        self.incarnation = 0
        #: One :class:`Channel` per peer, opened as ``CLUSTER_CLIENT_BASE
        #: + member_id``; ``_opening`` holds the ones still being opened,
        #: so concurrent askers of one peer share one connection.
        self.links: Dict[int, Channel] = {}
        self._opening: Dict[int, asyncio.Task] = {}
        self.rng = random.Random(
            self.config.seed if self.config.seed is None
            else self.config.seed + member_id
        )
        self._rotation: List[int] = []
        self._suspect_deadlines: Dict[int, float] = {}
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._catchup_task: Optional[asyncio.Task] = None
        self._failover_task: Optional[asyncio.Task] = None
        self._self_dead = False
        # Observable record for harnesses and tests: (monotonic instant,
        # event, detail) tuples — transitions, refutations, failovers.
        self.events: List[Tuple[float, str, Any]] = []
        self.dead_detected: Dict[int, float] = {}
        self.refutations = 0
        self.failovers = 0
        self.last_failover_seconds: Optional[float] = None
        #: The replica count of the largest ring this member has held:
        #: what a join after a degraded failover restores.
        self.replicas = int((server.engine.ring or {}).get("replicas", 0))
        # Gossip announces at least the epoch of the ring the server holds.
        view.ring_epoch = max(view.ring_epoch, server.engine.epoch)
        self.probes_sent = 0
        self.indirect_probes_sent = 0
        self.probes_failed = 0
        if self.view.get(member_id) is None:
            self.view.update(
                MemberInfo(member_id, server.address), now=loop_time()
            )
        if self.instruments is not None:
            self.instruments.bind(self)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "SwimAgent":
        self.server.agent = self
        self._stopping = False
        self._task = asyncio.ensure_future(self._loop())
        return self

    async def stop(self) -> None:
        # Before Python 3.12 ``wait_for`` swallows a cancellation that
        # lands just as its future completes.  A probe round that loses
        # its cancellation, that way or another, must not keep stop()
        # from returning: the flag ends the loop after that round.
        self._stopping = True
        for task in (
            self._task, self._catchup_task, self._failover_task,
            *self._opening.values(),
        ):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._task = self._catchup_task = self._failover_task = None
        for link in self.links.values():
            await link.close()
        self.links.clear()
        if getattr(self.server, "agent", None) is self:
            self.server.agent = None

    @property
    def coordinator(self) -> Optional[int]:
        return self.view.coordinator()

    def status(self) -> Dict[str, Any]:
        """One member's answer to ``repro cluster status``."""
        return {
            "member": self.member_id,
            "incarnation": self.incarnation,
            "coordinator": self.coordinator,
            "epoch": self.server.engine.epoch,
            "members": self.view.wire_payload()["members"],
            "probes_sent": self.probes_sent,
            "probes_failed": self.probes_failed,
            "refutations": self.refutations,
            "failovers": self.failovers,
        }

    # -- the probe loop ------------------------------------------------------

    async def _loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.probe_period)
            try:
                self._expire_suspects()
                target = self._next_target()
                if target is not None:
                    await self._probe(target)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.warning(
                    "member %s probe round failed: %r", self.member_id, exc
                )

    def _next_target(self) -> Optional[int]:
        """SWIM's randomized round-robin: shuffle the membership, walk
        it to exhaustion, reshuffle — every member is probed within one
        rotation, in an order distinct per prober."""
        targets = self.view.probe_targets(self.member_id)
        if not targets:
            return None
        self._rotation = [m for m in self._rotation if m in targets]
        if not self._rotation:
            self._rotation = list(targets)
            self.rng.shuffle(self._rotation)
        return self._rotation.pop()

    def _gossip(self) -> Dict[str, Any]:
        return self.view.wire_payload()

    async def _probe(self, target: int) -> None:
        self.probes_sent += 1
        started = loop_time()
        if await self._direct_ping(target):
            if self.instruments is not None:
                self.instruments.on_probe(loop_time() - started, "ack")
            return
        if await self._indirect_ping(target):
            if self.instruments is not None:
                self.instruments.on_probe(loop_time() - started, "indirect")
            return
        self.probes_failed += 1
        if self.instruments is not None:
            self.instruments.on_probe(loop_time() - started, "failed")
        self._suspect(target)

    async def _direct_ping(self, target: int) -> bool:
        reply = await self._ask(
            target,
            {"kind": PING, "from": self.member_id, "gossip": self._gossip()},
            self.config.probe_timeout,
        )
        if reply is None:
            return False
        self._merge_gossip(reply.get("gossip"))
        return True

    async def _indirect_ping(self, target: int) -> bool:
        """Ask ``k`` proxies to probe the target on our behalf.  Any
        proxy reaching it proves the member alive and localizes the
        fault to our link — no suspicion, no false positive."""
        proxies = [
            m for m in self.view.ids(ALIVE)
            if m not in (self.member_id, target)
        ]
        if not proxies:
            return False
        self.rng.shuffle(proxies)
        proxies = proxies[:INDIRECT_PROBES]

        async def ask(proxy: int) -> bool:
            self.indirect_probes_sent += 1
            reply = await self._ask(
                proxy,
                {
                    "kind": PING_REQ, "from": self.member_id,
                    "target": target, "gossip": self._gossip(),
                },
                # The proxy needs its own probe_timeout to reach the
                # target; allow both legs.
                2.0 * self.config.probe_timeout,
            )
            if reply is None:
                return False
            self._merge_gossip(reply.get("gossip"))
            return bool(reply.get("ok"))

        results = await asyncio.gather(*(ask(p) for p in proxies))
        return any(results)

    async def _ask(
        self, peer: int, frame: Dict[str, Any], timeout: float
    ) -> Optional[Dict[str, Any]]:
        """One request to ``peer``: one attempt, one timeout (SWIM's
        probe rounds *are* the retry mechanism; a retransmit ladder here
        would blur the detector's timing).  Returns the reply, or
        ``None`` when there is no usable one — no connection, no answer
        in time, or an ``error`` frame."""
        try:
            link = await self._link(peer)
            reply = await link.call(frame, timeout)
            if reply.get("kind") != ERROR:
                return reply
            failure = reply.get("error")
        except (OSError, FrameError) as exc:
            failure = exc
        logger.debug(
            "member %s: %s to member %s failed: %r",
            self.member_id, frame["kind"], peer, failure,
        )
        return None

    async def _link(self, peer: int) -> Channel:
        """The live channel to ``peer``, dialled if there is none.  A
        caller arriving while a dial to that peer is in flight awaits the
        same dial — a second one would replace, and close, the channel
        the first had already handed to its caller."""
        link = self.links.get(peer)
        if link is not None and link.connected:
            return link
        opening = self._opening.get(peer)
        if opening is None:
            opening = asyncio.ensure_future(self._open_link(peer))
            self._opening[peer] = opening
            opening.add_done_callback(lambda _: self._opening.pop(peer, None))
        # Shielded: one asker's cancellation must not fail the others.
        return await asyncio.shield(opening)

    async def _open_link(self, peer: int) -> Channel:
        info = self.view.get(peer)
        if info is None or not info.address:
            raise ConnectionError(f"no address known for member {peer}")
        host, _, port = info.address.rpartition(":")
        # The faults attach once the link has formed (Channel.attach):
        # tests sever one pairwise link, possibly one direction only.
        link = Channel(
            CLUSTER_CLIENT_BASE + self.member_id, host, int(port),
            faults=self.link_faults(peer) if self.link_faults else None,
        )
        await link.open(max(self.config.probe_timeout, 0.2))
        link.attach()
        old = self.links.get(peer)
        self.links[peer] = link
        if old is not None:
            await old.close()
        return link

    # -- membership transitions ----------------------------------------------

    def _suspect(self, target: int) -> None:
        info = self.view.get(target)
        if info is None or info.state in (DEAD, LEFT):
            return
        change = self.view.update(
            MemberInfo(target, info.address, info.incarnation, SUSPECT),
            now=loop_time(),
        )
        if change is not None:
            self._on_transitions([(target, change[0], change[1])])

    def _expire_suspects(self) -> None:
        now = loop_time()
        for member, deadline in list(self._suspect_deadlines.items()):
            info = self.view.get(member)
            if info is None or info.state != SUSPECT:
                self._suspect_deadlines.pop(member, None)
                continue
            if now < deadline:
                continue
            self._suspect_deadlines.pop(member, None)
            change = self.view.update(
                MemberInfo(member, info.address, info.incarnation, DEAD),
                now=now,
            )
            if change is not None:
                self._on_transitions([(member, change[0], change[1])])

    def _merge_gossip(self, payload: Optional[Dict[str, Any]]) -> None:
        if not isinstance(payload, dict):
            return
        transitions = self.view.merge(payload, now=loop_time())
        self._refute_if_suspected()
        if transitions:
            self._on_transitions(transitions)
        self._maybe_catch_up_ring()

    def _refute_if_suspected(self) -> None:
        """SWIM refutation: gossip says *we* are suspect — only we may
        raise our incarnation, and doing so supersedes the suspicion
        everywhere it has spread."""
        own = self.view.get(self.member_id)
        if own is None:
            return
        if own.state == SUSPECT:
            self.incarnation = own.incarnation + 1
            self.view.update(
                MemberInfo(
                    self.member_id, self.server.address,
                    self.incarnation, ALIVE,
                ),
                now=loop_time(),
            )
            self.refutations += 1
            self.events.append((loop_time(), "refuted", self.incarnation))
        elif own.state in (DEAD, LEFT) and not self._self_dead:
            # A false positive became terminal before our refutation
            # landed: this id is unrecoverable (rejoin needs a fresh
            # one).  Keep serving data, stop arguing.
            self._self_dead = True
            logger.warning(
                "member %s was declared %s by the cluster",
                self.member_id, own.state,
            )

    def _on_transitions(
        self, transitions: Sequence[Tuple[int, Optional[str], str]]
    ) -> None:
        now = loop_time()
        dead_seen = False
        join_seen = False
        for member, old_state, new_state in transitions:
            self.events.append((now, f"{old_state}->{new_state}", member))
            if self.instruments is not None:
                self.instruments.on_transition(new_state)
            if new_state == SUSPECT and member != self.member_id:
                self._suspect_deadlines.setdefault(
                    member, now + self.config.suspect_timeout
                )
            elif new_state == ALIVE:
                self._suspect_deadlines.pop(member, None)
                if member != self.member_id:
                    join_seen = True
            elif new_state in (DEAD, LEFT):
                self._suspect_deadlines.pop(member, None)
                self.dead_detected.setdefault(member, now)
                dead_seen = True
        if dead_seen or join_seen:
            self._maybe_run_failover()  # one driver repairs deaths and joins

    # -- ring catch-up (gossip said a newer epoch exists) ---------------------

    def _maybe_catch_up_ring(self) -> None:
        if self.view.ring_epoch <= self.server.engine.epoch:
            return
        if self._catchup_task is None or self._catchup_task.done():
            self._catchup_task = asyncio.ensure_future(self._catch_up_ring())

    async def _catch_up_ring(self) -> None:
        wanted = self.view.ring_epoch
        candidates = self.view.ids(ALIVE, SUSPECT)
        coordinator = self.coordinator
        if coordinator in candidates:
            candidates.remove(coordinator)
            candidates.insert(0, coordinator)
        for peer in candidates:
            if peer == self.member_id:
                continue
            reply = await self._ask(
                peer, {"kind": RING_FETCH}, RPC_TIMEOUT
            )
            if reply is None:
                continue
            ring = reply.get("ring")
            if isinstance(ring, dict) and int(ring.get("epoch", 0)) >= wanted:
                self.server.set_ring(ring)
                return

    # -- failover (coordinator only) ------------------------------------------

    def _maybe_run_failover(self) -> None:
        if self.coordinator != self.member_id:
            return
        if self._failover_task is None or self._failover_task.done():
            self._failover_task = asyncio.ensure_future(self._run_repairs())

    def _ring_in_force(self) -> Optional[Ring]:
        ring_dict = self.server.engine.ring
        if ring_dict is None:
            return None
        ring = Ring.from_dict(ring_dict)
        self.replicas = max(self.replicas, ring.replicas)
        return ring

    async def _run_repairs(self) -> None:
        """Drive every pending membership repair: dead devices out
        first (promotion-first failover), then joiners in (rebalance).
        Re-checks after each plan — deaths during a repair are handled
        by the next round, and an already-current ring is a no-op."""
        try:
            while True:
                ring = self._ring_in_force()
                if ring is None:
                    return
                dead = [
                    m for m in self.view.ids(DEAD, LEFT) if m in ring.devices
                ]
                joiner = next(
                    (
                        m for m in self.view.ids(ALIVE)
                        if m not in ring.devices and self.view.get(m).address
                    ),
                    None,
                )
                if dead:
                    plan, kind = failover_ring(ring, dead), "failover"
                elif joiner is not None:
                    replicas = min(self.replicas, len(ring.devices) + 1)
                    plan = join_ring(ring, joiner, self.view.get(joiner).address,
                                     replicas=replicas)
                    kind = "join"
                else:
                    return
                if not await self._execute_plan(plan, kind):
                    await asyncio.sleep(self.config.probe_period)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            logger.warning(
                "coordinator %s repair failed: %r", self.member_id, exc
            )

    async def _execute_plan(self, plan: FailoverPlan, kind: str) -> bool:
        """Hand off, promote, cut over; whether the new ring was
        published.  It is not when a copy went unacknowledged — the new
        holder could serve values older than Δ allows — or a promoted
        member never acknowledged its ``promote``: nothing shows it ran
        the promotion rule, and it must not serve as primary without it.
        Either way the caller waits a probe period and plans again from
        the view as it is then."""
        started = loop_time()
        bound = self.config.detection_bound
        # 1. Handoff: copies into refilled rows, before any router can
        #    route by the new layout.
        for src, moves in sorted(plan.moves_by_source().items()):
            if src == self.member_id:
                copied = await self._copy_moves(moves)
            else:
                handoff = {
                    "kind": HANDOFF,
                    "moves": [
                        [m.partition, m.replica, m.src, m.dst] for m in moves
                    ],
                    "epoch": plan.ring.epoch,
                }
                # The donor's budget, and one RPC_TIMEOUT for its answer.
                timeout = handoff_budget(len(moves)) + RPC_TIMEOUT
                copied = await self._ask(src, handoff, timeout) is not None
            if not copied:
                logger.warning(
                    "handoff from member %s failed: ring epoch %d not "
                    "published", src, plan.ring.epoch,
                )
                return False
        # 2. Promotion: every device gaining primary authority runs the
        #    recovery-shaped rule before the cutover reaches routers —
        #    this member first, then the others on a ``promote`` frame.
        #    Neither installs the new ring: members adopt it only from
        #    the cutover's gossip, so a plan given up publishes nothing.
        #    Asking again is safe: a second promotion of one member can
        #    only raise its Context and mark more versions old.
        if self.member_id in plan.promoted:
            self.server.engine.promote(bound)
            self.events.append((loop_time(), "promoted", self.member_id))
        promote = {"kind": PROMOTE, "bound": bound}
        for dev in plan.promoted:
            if dev == self.member_id:
                continue
            for _ in range(PROMOTE_ATTEMPTS):
                if await self._ask(dev, promote, RPC_TIMEOUT) is not None:
                    break
            else:
                logger.warning(
                    "promote of member %s unanswered: ring epoch %d not "
                    "published", dev, plan.ring.epoch,
                )
                return False
        # 3. Cutover: install + announce.  Gossip spreads the epoch;
        #    members and routers pull the layout when they see it.
        self.server.set_ring(plan.ring.as_dict())
        self.view.ring_epoch = max(self.view.ring_epoch, plan.ring.epoch)
        elapsed = loop_time() - started
        self.failovers += 1
        self.last_failover_seconds = elapsed
        self.events.append((loop_time(), kind, plan.ring.epoch))
        logger.info(
            "%s to ring epoch %d by coordinator %s in %.3fs "
            "(promoted=%s moves=%d)",
            kind, plan.ring.epoch, self.member_id, elapsed,
            list(plan.promoted), len(plan.moves),
        )
        return True

    async def _copy_moves(self, moves: Sequence[PartitionMove]) -> bool:
        """Donor side of a handoff: send every object of this member's
        store whose partition moved to each new holder, as an ordinary
        ``write`` frame (the holder logs it before it acks),
        ``HANDOFF_WINDOW`` at a time, all within
        :func:`handoff_budget`.  Whether every copy was acknowledged; a
        group with one that is not, or the budget running out, ends it."""
        deadline = loop_time() + handoff_budget(len(moves))
        ring = self._ring_in_force()
        by_partition: Dict[int, List[PartitionMove]] = {}
        for move in moves:
            if move.src == self.member_id:
                by_partition.setdefault(move.partition, []).append(move)
        if not by_partition or ring is None:
            return True
        store = self.server.engine.store
        copies = [
            (move.dst, obj) for obj in list(store)
            for move in by_partition.get(ring.partition_for(obj), ())
        ]
        for start in range(0, len(copies), HANDOFF_WINDOW):
            timeout = min(RPC_TIMEOUT, deadline - loop_time())
            if timeout <= 0:
                return False
            replies = await asyncio.gather(*(
                self._ask(dst, {
                    "kind": messages.WRITE, "obj": obj,
                    "value": store[obj].value,
                }, timeout)
                for dst, obj in copies[start:start + HANDOFF_WINDOW]
            ))
            if None in replies:
                return False
        self.events.append((loop_time(), "handoff", {
            "moves": sum(map(len, by_partition.values())),
            "copied": len(copies),
        }))
        return True

    # -- inbound frames (routed here by the server) ---------------------------

    async def answer(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to a ``ping``, ``ping-req`` or ``handoff``; the
        server adds the request id and its ring epoch, and sends it."""
        kind = frame.get("kind")
        if kind == PING:
            self._merge_gossip(frame.get("gossip"))
            return {
                "kind": PING_ACK, "from": self.member_id,
                "gossip": self._gossip(),
            }
        if kind == PING_REQ:
            self._merge_gossip(frame.get("gossip"))
            target = int(frame.get("target", -1))
            ok = await self._direct_ping(target) if target >= 0 else False
            return {
                "kind": PING_REQ_ACK, "from": self.member_id,
                "target": target, "ok": ok, "gossip": self._gossip(),
            }
        if kind == HANDOFF:
            moves = [
                PartitionMove(int(p), int(r), int(s), int(d))
                for p, r, s, d in frame.get("moves", [])
            ]
            if not await self._copy_moves(moves):
                return {"kind": ERROR, "error": "a handoff copy failed"}
            return {"kind": HANDOFF_ACK, "moves": len(moves)}
        return {"kind": ERROR, "error": f"agent cannot handle {kind!r}"}

    def on_promoted(self, outcome: Dict[str, Any]) -> None:
        """Server hook: a PROMOTE frame was applied to our store."""
        self.events.append((loop_time(), "promoted", outcome))
