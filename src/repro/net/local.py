"""One localhost stack: stood up, faulted and torn down in one place.

Every harness that runs the live stack in-process — the workloads of
:mod:`repro.net.workloads` behind ``repro net-demo`` and ``repro ring
soak``, the scenario engine of :mod:`repro.load` — goes through this
module for the five sequences they used to write out themselves:

* servers on skewed clocks, each with a store under
  ``<store_root>/dev<id>``, plus the ring over them, and on a clustered
  stack the join of one started later (:meth:`LocalStack.add_server`);
* one SWIM agent per server, seeded with every address and the ring
  (:func:`start_agents`);
* a connected site with anti-entropy every
  :func:`anti_entropy_period` and, when clustered, the epoch watch
  (:meth:`LocalStack.connect`);
* the crash-and-measure sequence (:meth:`LocalStack.kill_primary`,
  returning the one :class:`FaultOutcome`);
* teardown, agents before sites before servers
  (:meth:`LocalStack.close`).

The deployment commands use two of them across processes: ``repro
serve`` and ``repro ring serve-set`` seed their agents through
:func:`start_agents`, and ``repro merge`` turns the traces each process
dumped into one history through :func:`merge_history`, the one way
recorded traces with reads of unrecorded writes become a history; the
verdict on that history is :func:`repro.checkers.judge`.
``benchmarks/layers/rep.py::build_stack`` is the remaining copy of the
stand-up (ROADMAP item 4).
"""

from __future__ import annotations

import asyncio
import math
import os
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clocks.rebase import RebasedClock, loop_time
from repro.core.history import History
from repro.core.operations import Operation
from repro.net.client import NetCacheClient, NetError
from repro.net.faults import FaultInjector
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.ring.placement import PlacementError
from repro.ring.ring import Ring, RingBuilder
from repro.store import DurableStore

HOST = "127.0.0.1"


def merge_history(
    op_lists: Sequence[Sequence[Operation]],
    initial_value: Any = 0,
    validate: bool = True,
) -> Tuple[History, int]:
    """One History from one or many partial traces, and how many reads
    it dropped.

    A write recorded by two processes (the server that installed it and
    the client that issued it: same site, object, value and time) is
    kept once, the first copy.  A recorder holds only the operations its
    own sites completed, so a read may return a value whose *write* ack
    raced a crash and was never recorded, or a value installed by a
    write retry whose first attempt half-landed.  Those reads cannot be
    attributed to any recorded write; they are dropped and counted
    rather than invalidating the merge.  ``validate=False`` (``repro
    merge --no-validate``) skips the History's own checks.
    """
    ops: List[Operation] = []
    seen = set()
    for op in (op for op_list in op_lists for op in op_list):
        if op.is_write:
            key = (op.site, op.obj, op.value, op.time)
            if key in seen:
                continue
            seen.add(key)
        ops.append(op)
    written = {(op.obj, op.value) for op in ops if op.is_write}
    kept = [
        op for op in ops
        if op.is_write or (op.obj, op.value) in written
        or op.value == initial_value
    ]
    history = History(kept, initial_value=initial_value, validate=validate)
    return history, len(ops) - len(kept)


def default_skews(n_clients: int, magnitude: float) -> List[float]:
    """Alternating +/- skews so no two clients share a clock error."""
    return [
        magnitude * (1 + i // 2) * (1 if i % 2 == 0 else -1)
        for i in range(n_clients)
    ]


def anti_entropy_period(delta: float) -> float:
    """How often a router re-pushes lagging replicas: four passes inside
    every delta, never slower than the router's own default and never
    faster than once a millisecond (at delta 0 the loop would spin)."""
    return 0.05 if math.isinf(delta) else max(0.001, min(0.05, delta / 4.0))


@dataclass
class FaultOutcome:
    """What :meth:`LocalStack.kill_primary` measured: the killed device,
    crash-to-DEAD-transition and crash-to-first-re-acked-write latencies
    (seconds; ``None`` = never), the epoch the cluster converged on, how
    many servers ran the promotion rule, and the analytic bound."""

    fault: str
    killed_device: Optional[int] = None
    time_to_detect: Optional[float] = None
    time_to_recover: Optional[float] = None
    failover_epoch: Optional[int] = None
    promotions: int = 0
    detection_bound: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


async def start_agents(
    servers: Dict[int, NetObjectServer],
    ring: Optional[Ring],
    config: Any,
    registry: Optional[Any] = None,
    peers: Optional[Dict[int, str]] = None,
) -> Dict[int, Any]:
    """One started :class:`~repro.cluster.SwimAgent` per server, each
    seeded with every member's address (``peers`` adds members served by
    other processes), its server holding ``ring`` before the agent is
    built; with a ``registry`` each gets its
    :class:`~repro.obs.instruments.ClusterInstruments`.  If one fails to
    start, the ones already started are stopped."""
    from repro.cluster import ClusterView, SwimAgent

    addresses = dict(peers or {})
    addresses.update((dev_id, srv.address) for dev_id, srv in servers.items())
    agents: Dict[int, Any] = {}
    try:
        for dev_id, server in servers.items():
            if ring is not None:
                server.set_ring(ring.as_dict())
            instruments = None
            if registry is not None:
                from repro.obs.instruments import ClusterInstruments

                instruments = ClusterInstruments(registry, member=dev_id)
            agents[dev_id] = SwimAgent(
                dev_id, server, ClusterView.seed(addresses),
                config, instruments=instruments,
            )
            await agents[dev_id].start()
    except BaseException:
        for agent in agents.values():
            await agent.stop()
        raise
    return agents


class LocalStack:
    """The live stack on localhost, as an async context manager.

    ``replicas=None`` is a single server and :meth:`connect` returns a
    :class:`~repro.net.client.NetCacheClient`; with ``replicas`` set the
    ``servers`` devices (ids ``0..servers-1``) form a ``2**part_power``
    partition ring and :meth:`connect` returns a
    :class:`~repro.net.ring_router.RingRouter`.  Server ``i`` runs on the
    ``i``-th clock of ``default_skews(…, server_skew)``.  ``cluster`` (a
    :class:`~repro.cluster.ClusterConfig`) attaches a SWIM agent to every
    server; ``registry`` instruments servers (``device=<id>``), stores
    (``store=dev<id>``), agents and ring-routed sites.

    Arguments are checked before the first socket opens, and a start-up
    that fails half way closes what it had started.
    """

    def __init__(
        self,
        *,
        servers: int = 1,
        replicas: Optional[int] = None,
        part_power: int = 6,
        propagation: str = "none",
        server_skew: float = 0.02,
        store_root: Optional[str] = None,
        fsync: str = "interval",
        cluster: Optional[Any] = None,
        registry: Optional[Any] = None,
        fault_factory: Optional[Callable[[], FaultInjector]] = None,
    ) -> None:
        if servers < 1:
            raise ValueError(f"need at least one server, got {servers}")
        if replicas is None and servers != 1:
            raise ValueError(f"{servers} servers need a ring: set replicas")
        if replicas is not None and replicas > servers:
            raise ValueError(
                f"replication factor {replicas} exceeds {servers} servers"
            )
        if cluster is not None and replicas is None:
            raise ValueError("cluster agents need a ring: set replicas")
        self.propagation = propagation
        self.server_skew = server_skew
        self.store_root = store_root
        self.fsync = fsync
        self.cluster = cluster
        self.registry = registry
        self.fault_factory = fault_factory
        self.ring: Optional[Ring] = None
        if replicas is not None:
            builder = RingBuilder(part_power, replicas)
            for dev_id in range(servers):
                builder.add_device(dev_id)
            self.ring, _ = builder.rebalance()
        self._initial_servers = servers
        self.servers: Dict[int, NetObjectServer] = {}
        self.agents: Dict[int, Any] = {}
        self.sites: List[NetCacheClient] = []

    async def __aenter__(self) -> "LocalStack":
        try:
            for _ in range(self._initial_servers):
                await self.add_server()
            if self.cluster is not None:
                self.agents = await start_agents(
                    self.servers, self.ring, self.cluster, self.registry
                )
        except BaseException:
            await self.close()
            raise
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def endpoints(self) -> Dict[int, Tuple[str, int]]:
        return {d: (srv.host, srv.port) for d, srv in self.servers.items()}

    async def add_server(self) -> int:
        """Start the next device (the one constructor path: skewed clock,
        store, metric labels) and return its id.  It serves at once.  On
        a clustered stack that is up it also gets its agent, seeded with
        the others' addresses, and so joins the ring: the coordinator
        copies the moved partitions from the donors' own stores, promotes
        the new primaries and cuts over at a higher epoch.  Unclustered,
        no ring names it."""
        dev_id = len(self.servers)
        labelled = self.registry is not None
        store = None
        if self.store_root is not None:
            store = DurableStore(
                os.path.join(self.store_root, f"dev{dev_id}"),
                fsync=self.fsync,
                registry=self.registry,
                metric_labels={"store": f"dev{dev_id}"} if labelled else None,
            )
        server = NetObjectServer(
            HOST, 0, propagation=self.propagation,
            clock=RebasedClock(
                offset=default_skews(dev_id + 1, self.server_skew)[dev_id]
            ),
            fault_factory=self.fault_factory,
            registry=self.registry,
            metric_labels={"device": dev_id} if labelled else None,
            store=store,
        )
        self.servers[dev_id] = server  # before start: a failed one is closed too
        await server.start()
        if self.agents:
            peers = {d: s.address for d, s in self.servers.items() if d != dev_id}
            self.agents.update(await start_agents(
                {dev_id: server}, self.ring, self.cluster, self.registry,
                peers=peers,
            ))
        return dev_id

    async def connect(
        self, site_id: int, *, delta: float, **client_options: Any
    ) -> NetCacheClient:
        """A connected site, closed with the stack.  ``client_options``
        go to the client's (or router's) constructor."""
        if self.ring is None:
            host, port = self.endpoints[0]
            site = NetCacheClient(
                site_id, host, port, delta=delta, **client_options
            )
        else:
            site = RingRouter(
                site_id, self.ring, self.endpoints, delta=delta,
                registry=self.registry, **client_options,
            )
        self.sites.append(site)  # before connect: a failed one is closed too
        await site.connect()
        if self.ring is not None:
            site.start_anti_entropy(period=anti_entropy_period(delta))
            if self.cluster is not None:
                # Belt to the reply-stamp suspenders: poll for higher
                # epochs too, so an idle router still converges.
                site.start_epoch_watch(period=self.cluster.probe_period)
        return site

    async def kill_primary(
        self, key: str, rewrite: Callable[[], Awaitable[Any]]
    ) -> FaultOutcome:
        """Crash the primary of ``key`` and measure the failover.

        No BYE, no clean snapshot, no manual ``swap_ring``: detection,
        promotion and the routers' cutover all happen through the
        cluster subsystem.  ``rewrite()`` writes ``key`` once through a
        connected site; it is retried until a write is acknowledged
        again (recovery from the client's seat), then every survivor
        must hold the victim DEAD at a higher epoch.  Afterwards
        ``ring`` is the failed-over ring the coordinator published.
        """
        from repro.cluster import DEAD

        config = self.cluster
        if config is None:
            raise ValueError("kill_primary needs a clustered stack: set cluster")
        victim = self.ring.primary_for(key)
        outcome = FaultOutcome(
            "kill-primary", killed_device=victim,
            detection_bound=config.detection_bound,
        )
        kill_at = loop_time()
        await self.servers[victim].abort()
        await self.agents[victim].stop()

        # PlacementError triggers the router's refresh-then-retry; until
        # a survivor serves the new epoch the retry fails and we back off.
        deadline = kill_at + config.detection_bound + 10.0
        while loop_time() < deadline:
            try:
                await rewrite()
                outcome.time_to_recover = loop_time() - kill_at
                break
            except (PlacementError, NetError):
                await asyncio.sleep(config.probe_period / 4.0)

        survivors = [a for d, a in self.agents.items() if d != victim]
        while loop_time() < deadline:
            if all(
                victim in a.view.ids(DEAD) and a.server.engine.epoch > self.ring.epoch
                for a in survivors
            ):
                break
            await asyncio.sleep(config.probe_period / 2.0)
        detected = [
            a.dead_detected[victim] for a in survivors
            if victim in a.dead_detected
        ]
        if detected:
            outcome.time_to_detect = min(detected) - kill_at
        outcome.promotions = sum(
            s.engine.promotions for d, s in self.servers.items() if d != victim
        )
        outcome.failover_epoch = max(a.server.engine.epoch for a in survivors)
        for agent in survivors:
            published = agent.server.engine.ring
            if (published is not None
                    and int(published.get("epoch", 0)) == outcome.failover_epoch):
                self.ring = Ring.from_dict(published)
                break
        for agent in survivors:
            if agent.instruments is None:
                continue
            if outcome.time_to_detect is not None:
                agent.instruments.set_time_to_detect(outcome.time_to_detect)
            if outcome.time_to_recover is not None:
                agent.instruments.set_time_to_recover(outcome.time_to_recover)
        return outcome

    async def close(self) -> None:
        """Agents, then sites, then servers: a probe must not outlive
        its target, nor a client's drain the server it drains into."""
        for agent in self.agents.values():
            await agent.stop()
        for site in self.sites:
            await site.close()
        for server in self.servers.values():
            await server.close()
