"""In-process localhost workloads: run, record, then check the trace.

The loop-closer for ``repro.net``: stand the real TCP stack up through
:class:`~repro.net.local.LocalStack`, connect real sites (each with its
own skewed-then-synchronized clock), drive a workload, and hand the
*recorded* execution to :func:`~repro.net.local.judge` with the
``epsilon`` the clock-sync layer itself reports.  Everything runs on one
event loop so a single :class:`~repro.sim.trace.TraceRecorder` sees the
whole cluster — the multi-process deployment (``repro serve`` / ``repro
client``) records per-process traces instead.

Three workloads:

* :func:`push_staleness_cluster` — the single-server acceptance
  scenario: one writer, N-1 subscribed readers in ``push`` mode, clock
  skew on every client, and a fault injector delaying only ``push``
  frames.  With delay within the bound the trace satisfies TSC(delta);
  with delay > delta the readers keep serving the old version from cache
  past its deadline and the checkers (offline TSC and the online
  monitor) flag the late reads.
* :func:`random_net_cluster` — a uniform read/write mix over one
  ``pull``-mode server, optionally through lossy client links.
* :func:`ring_cluster` — the multi-server soak: ``n_servers`` servers on
  genuinely distinct timescales, ``n_clients`` ring-routed sites over a
  shared namespace, judged at the routers' composed epsilon
  (``max_site 2*(err_ref + max_dev err_dev)``).  Optionally it grows the
  ring mid-run (``add_device_midway``: a fresh server joins, the builder
  rebalances with minimal moves, the handoff is replayed over the live
  connections while reads continue against the old ring, then every
  router cuts over atomically) or crashes a primary
  (``kill_primary_midway``).  The whole trace — before, during, and
  after — must still satisfy the timed criterion at the configured
  delta; that is the acceptance bar for ``repro ring soak`` and
  ``tests/test_ring_net.py``.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkers.online import ReadVerdict
from repro.checkers.result import CheckResult
from repro.clocks.rebase import loop_time
from repro.core.history import History, HistoryError
from repro.engine import messages
from repro.engine.stats import ClientStats
from repro.net.client import NetCacheClient, NetError
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.local import (
    FaultOutcome,
    LocalStack,
    default_skews,
    judge,
    merge_history,
)
from repro.net.ring_router import RingRouter, RouterStats
from repro.ring.placement import PlacementError, PlacementStats
from repro.ring.rebalance import HandoffReport, PartitionMove, Rebalancer
from repro.ring.ring import Ring
from repro.sim.trace import TraceRecorder, UniqueValueFactory
from repro.store import SnapshotCatalog

DEFAULT_OBJECTS = ("apple", "birch", "cedar", "delta", "elm", "fir")


@dataclass
class ClusterReport:
    """Everything a caller needs to judge one single-server run."""

    history: History
    delta: float
    epsilon: float
    tsc: CheckResult
    tcc: CheckResult
    sc: CheckResult
    verdicts: List[ReadVerdict]
    client_stats: Dict[int, ClientStats]
    client_offsets: Dict[int, float] = field(default_factory=dict)
    server_requests: int = 0
    pushes_sent: int = 0

    @property
    def late_reads(self) -> List[ReadVerdict]:
        return [v for v in self.verdicts if not v.on_time]

    def totals(self) -> ClientStats:
        merged = ClientStats()
        for stats in self.client_stats.values():
            merged = merged.merge(stats)
        return merged


def _cluster_report(
    recorder: TraceRecorder,
    delta: float,
    clients: Sequence[NetCacheClient],
    stack: LocalStack,
) -> ClusterReport:
    history = recorder.history()
    epsilon = max(client.epsilon_bound for client in clients)
    verdict = judge(history, delta, epsilon)
    server = stack.servers[0]
    return ClusterReport(
        history=history,
        delta=delta,
        epsilon=epsilon,
        tsc=verdict.tsc,
        tcc=verdict.tcc,
        sc=verdict.sc,
        verdicts=verdict.verdicts,
        client_stats={c.client_id: c.stats for c in clients},
        client_offsets={c.client_id: c.clock.estimator.offset for c in clients},
        server_requests=server.engine.requests,
        pushes_sent=server.pushes_sent,
    )


async def push_staleness_cluster(
    *,
    n_clients: int = 3,
    delta: float = 0.3,
    push_delay: float = 0.0,
    skew: float = 0.1,
    hold: Optional[float] = None,
    read_period: float = 0.02,
) -> ClusterReport:
    """The acceptance scenario, as a coroutine (see module docstring)."""
    if n_clients < 2:
        raise ValueError("need at least one writer and one reader")
    recorder = TraceRecorder()
    values = UniqueValueFactory()
    fault_factory = None
    if push_delay > 0:
        fault_factory = lambda: FaultInjector(
            FaultConfig(delay=push_delay), kinds={messages.PUSH}
        )
    skews = default_skews(n_clients, skew)
    async with LocalStack(propagation="push", server_skew=0.0,
                          fault_factory=fault_factory) as stack:
        clients = [
            await stack.connect(i, delta=delta, mode="push",
                                recorder=recorder, skew=skews[i])
            for i in range(n_clients)
        ]
        writer, readers = clients[0], clients[1:]
        # Seed: everyone caches version v0.
        await writer.write("x", values.next_value(writer.client_id))
        for reader in readers:
            await reader.read("x")
        # The step: v1 is installed; its push is (possibly) delayed.
        await writer.write("x", values.next_value(writer.client_id))
        window = hold if hold is not None else max(push_delay, delta) + 0.3

        async def read_loop(reader: NetCacheClient) -> None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + window
            while loop.time() < deadline:
                await reader.read("x")
                await asyncio.sleep(read_period)

        await asyncio.gather(*(read_loop(reader) for reader in readers))
    return _cluster_report(recorder, delta, clients, stack)


def run_push_staleness_demo(**kwargs) -> ClusterReport:
    """Synchronous wrapper around :func:`push_staleness_cluster`."""
    return asyncio.run(push_staleness_cluster(**kwargs))


async def random_net_cluster(
    *,
    n_clients: int = 3,
    delta: float = math.inf,
    objects: Sequence[str] = ("x", "y", "z"),
    rounds: int = 20,
    write_fraction: float = 0.2,
    think: float = 0.004,
    skew: float = 0.05,
    client_faults: Optional[FaultConfig] = None,
    seed: int = 7,
) -> ClusterReport:
    """A uniform random workload over a pull-mode cluster."""
    recorder = TraceRecorder()
    values = UniqueValueFactory()
    skews = default_skews(n_clients, skew)
    async with LocalStack(server_skew=0.0) as stack:
        clients = [
            await stack.connect(
                i, delta=delta, mode="pull", recorder=recorder,
                skew=skews[i],
                faults=FaultInjector(client_faults, kinds={
                    messages.FETCH, messages.VALIDATE, messages.WRITE,
                }) if client_faults is not None else None,
            )
            for i in range(n_clients)
        ]

        async def workload(client: NetCacheClient) -> None:
            rng = random.Random(seed + client.client_id)
            for _ in range(rounds):
                await asyncio.sleep(rng.uniform(0.0, 2 * think))
                obj = rng.choice(list(objects))
                if rng.random() < write_fraction:
                    await client.write(obj, values.next_value(client.client_id))
                else:
                    await client.read(obj)

        await asyncio.gather(*(workload(client) for client in clients))
    return _cluster_report(recorder, delta, clients, stack)


@dataclass
class RingReport:
    """Everything a caller needs to judge one multi-server run."""

    history: History
    ring: Ring
    delta: float
    epsilon: float
    tsc: CheckResult
    tcc: CheckResult
    sc: CheckResult
    verdicts: List[ReadVerdict]
    router_stats: Dict[int, RouterStats]
    placement_stats: Dict[int, PlacementStats]
    server_requests: Dict[int, int]
    moves: List[PartitionMove] = field(default_factory=list)
    handoff: Optional[HandoffReport] = None
    #: Live on-time / visibility summary (``TimedInstruments.summary()``)
    #: when the soak ran with a registry; the online counterpart of the
    #: offline ``tsc`` verdict.
    ontime: Optional[Dict[str, object]] = None
    #: What ``kill_primary_midway`` measured; ``None`` without it.
    fault: Optional[FaultOutcome] = None
    #: Reads dropped from ``history`` because they returned a value no
    #: *recorded* write wrote (:func:`~repro.net.local.merge_history`);
    #: always 0 in a soak that injected no fault.
    unmatched_reads: int = 0

    @property
    def late_reads(self) -> List[ReadVerdict]:
        return [v for v in self.verdicts if not v.on_time]

    @property
    def off_ring_reads(self) -> int:
        return sum(s.off_ring_reads for s in self.router_stats.values())

    @property
    def reads_by_device(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for stats in self.router_stats.values():
            for dev, count in stats.reads_by_device.items():
                merged[dev] = merged.get(dev, 0) + count
        return merged

    @property
    def writes_by_device(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for stats in self.router_stats.values():
            for dev, count in stats.writes_by_device.items():
                merged[dev] = merged.get(dev, 0) + count
        return merged

    def repairs(self) -> Tuple[int, int, int]:
        """(queued, done, late) summed over all routers."""
        queued = sum(s.repairs_queued for s in self.placement_stats.values())
        done = sum(s.repairs_done for s in self.placement_stats.values())
        late = sum(s.repairs_late for s in self.placement_stats.values())
        return queued, done, late


async def ring_cluster(
    *,
    n_servers: int = 3,
    replicas: int = 2,
    n_clients: int = 2,
    part_power: int = 6,
    delta: float = 0.4,
    objects: Sequence[str] = DEFAULT_OBJECTS,
    rounds: int = 30,
    duration: Optional[float] = None,
    write_fraction: float = 0.3,
    think: float = 0.002,
    skew: float = 0.05,
    server_skew: float = 0.02,
    seed: int = 7,
    write_quorum: Optional[int] = None,
    read_policy: str = "primary",
    add_device_midway: bool = False,
    cluster: bool = False,
    probe_period: float = 0.1,
    suspect_timeout: float = 0.3,
    kill_primary_midway: bool = False,
    registry: Optional[object] = None,
    store_root: Optional[str] = None,
    fsync: str = "interval",
    pipeline_depth: int = 8,
) -> RingReport:
    """Run one ring-routed cluster end to end; see the module docstring.

    ``duration`` (seconds) makes the main workload phase time-bounded:
    each client keeps issuing operations until the deadline instead of
    stopping after ``rounds`` — the knob ``repro ring soak --duration``
    exposes for wall-clock-sized soaks.  ``rounds`` is ignored for the
    main phase when ``duration`` is set (the shorter post-growth /
    post-failover phases still derive from ``rounds``).

    ``store_root`` gives every server a :class:`repro.store.DurableStore`
    under ``<store_root>/dev<id>`` (WAL policy ``fsync``); the midway
    handoff then streams moved objects from the on-disk snapshots/WALs
    (:class:`repro.store.SnapshotCatalog`) rather than the donors' live
    memory — the configuration that survives a donor crash.

    ``registry`` (a :class:`repro.obs.metrics.Registry`) instruments the
    whole cluster: every server and router binds its counters, and one
    shared :class:`~repro.obs.instruments.TimedInstruments` judges reads
    online at the configured delta (epsilon set from the routers'
    clock-sync bounds after connect).  The report then carries the live
    ``ontime`` summary next to the offline checker verdicts.  A caller
    wanting a live ``/metrics`` endpoint starts a
    :class:`~repro.obs.expo.MetricsServer` over the same registry and
    runs the soak as a task (see ``repro ring soak --metrics-port``).
    """
    if kill_primary_midway and not cluster:
        raise ValueError("kill_primary_midway requires cluster=True")
    if kill_primary_midway and add_device_midway:
        raise ValueError(
            "kill_primary_midway and add_device_midway are separate soaks"
        )
    cluster_config = None
    if cluster:
        from repro.cluster import ClusterConfig

        cluster_config = ClusterConfig(
            probe_period=probe_period, suspect_timeout=suspect_timeout,
            seed=seed,
        )
    instruments = None
    if registry is not None:
        from repro.obs.instruments import TimedInstruments

        instruments = TimedInstruments(registry, delta)

    recorder = TraceRecorder()
    values = UniqueValueFactory()
    client_skews = default_skews(n_clients, skew)
    moves: List[PartitionMove] = []
    handoff: Optional[HandoffReport] = None
    fault: Optional[FaultOutcome] = None

    async def mixed(
        router: RingRouter, n: int, salt: int,
        until: Optional[float] = None,
    ) -> None:
        rng = random.Random(seed + 31 * router.client_id + salt)
        issued = 0
        while (loop_time() < until) if until is not None else (
            issued < n
        ):
            issued += 1
            await asyncio.sleep(rng.uniform(0.0, 2 * think))
            obj = rng.choice(list(objects))
            if rng.random() < write_fraction:
                await router.write(obj, values.next_value(router.client_id))
            else:
                await router.read(obj)

    # After a kill the workload resumes against the survivors; early
    # rounds may still race the routers' cutover, so tolerate and retry.
    # A write whose attempt raised after a server installed it stays
    # readable but unrecorded: merge_history counts such reads below.
    async def mixed_after_failover(router: RingRouter, n: int) -> None:
        rng = random.Random(seed + 97 * router.client_id)
        for _ in range(n):
            await asyncio.sleep(rng.uniform(0.0, 2 * think))
            obj = rng.choice(list(objects))
            write = rng.random() < write_fraction
            for _attempt in range(40):
                try:
                    if write:
                        await router.write(
                            obj, values.next_value(router.client_id)
                        )
                    else:
                        await router.read(obj)
                    break
                except (PlacementError, NetError):
                    await asyncio.sleep(probe_period / 4.0)

    async with LocalStack(
        servers=n_servers, replicas=replicas, part_power=part_power,
        server_skew=server_skew, store_root=store_root, fsync=fsync,
        cluster=cluster_config, registry=registry,
    ) as stack:
        routers = [
            await stack.connect(
                i, delta=delta, write_quorum=write_quorum,
                read_policy=read_policy, recorder=recorder,
                skew=client_skews[i], instruments=instruments,
                pipeline_depth=pipeline_depth,
            )
            for i in range(n_clients)
        ]
        # Seed: every object gets a first real version on its full
        # replica set, so no read depends on the servers' initial value.
        for obj in objects:
            await routers[0].write(obj, values.next_value(routers[0].client_id))

        until = (
            loop_time() + duration if duration is not None else None
        )
        await asyncio.gather(*(mixed(r, rounds, 0, until) for r in routers))

        if kill_primary_midway:
            fault = await stack.kill_primary(
                objects[0],
                lambda: routers[0].write(
                    objects[0], values.next_value(routers[0].client_id)
                ),
            )
            await asyncio.gather(
                *(mixed_after_failover(r, max(rounds // 2, 5))
                  for r in routers)
            )

        if add_device_midway:
            old_ring = stack.ring
            new_id = await stack.add_server()
            host, port = stack.endpoints[new_id]
            for router in routers:
                await router.connect_device(new_id, host, port)
            rebalancer = Rebalancer(stack.builder, old_ring)
            new_ring, moves = rebalancer.add_device(
                new_id, address=f"{host}:{port}"
            )
            # Copy moved partitions over the live connections while the
            # routers keep reading against the OLD ring (writes pause for
            # the copy window — the cutover discipline of docs/RING.md).
            stop_reading = asyncio.Event()

            async def read_through_handoff(router: RingRouter) -> None:
                rng = random.Random(seed + router.client_id)
                while not stop_reading.is_set():
                    await router.read(rng.choice(list(objects)))
                    await asyncio.sleep(think)

            readers = [
                asyncio.ensure_future(read_through_handoff(r)) for r in routers
            ]
            snapshots = None
            if store_root is not None:
                snapshots = SnapshotCatalog({
                    dev_id: server.durable.root
                    for dev_id, server in stack.servers.items()
                })
            try:
                handoff = await rebalancer.handoff(
                    moves, objects, old_ring, routers[0].placement.transport,
                    snapshots=snapshots,
                )
            finally:
                stop_reading.set()
                await asyncio.gather(*readers, return_exceptions=True)
            for router in routers:
                router.swap_ring(new_ring)
            stack.ring = new_ring
            await asyncio.gather(
                *(mixed(r, max(rounds // 2, 5), 1) for r in routers)
            )

        for router in routers:
            await router.placement.drain()

    history, unmatched = merge_history([recorder.operations])
    if unmatched and fault is None:
        # Nothing was injected that could eat a write's ack, so nothing
        # excuses a read of a value no recorded write wrote.
        raise HistoryError(
            f"{unmatched} reads return a value never written, "
            "and no fault was injected"
        )
    epsilon = max(router.epsilon_bound for router in routers)
    verdict = judge(history, delta, epsilon)
    return RingReport(
        history=history,
        ring=stack.ring,
        delta=delta,
        epsilon=epsilon,
        tsc=verdict.tsc,
        tcc=verdict.tcc,
        sc=verdict.sc,
        verdicts=verdict.verdicts,
        router_stats={r.client_id: r.stats for r in routers},
        placement_stats={r.client_id: r.placement.stats for r in routers},
        server_requests={d: s.engine.requests for d, s in stack.servers.items()},
        moves=list(moves),
        handoff=handoff,
        ontime=instruments.summary() if instruments is not None else None,
        fault=fault,
        unmatched_reads=unmatched,
    )


def run_ring_soak(
    *,
    metrics_port: Optional[int] = None,
    metrics_host: str = "127.0.0.1",
    **kwargs,
) -> RingReport:
    """Synchronous wrapper around :func:`ring_cluster`.

    ``metrics_port`` (0 for an ephemeral port) serves the soak's
    registry on ``http://<metrics_host>:<port>/metrics`` for the run's
    duration — a registry is created if the caller did not pass one.
    """

    async def _run() -> RingReport:
        registry = kwargs.pop("registry", None)
        metrics = None
        if metrics_port is not None:
            if registry is None:
                from repro.obs.metrics import Registry

                registry = Registry()
            from repro.obs.expo import MetricsServer

            metrics = await MetricsServer(
                registry, metrics_host, metrics_port
            ).start()
        try:
            return await ring_cluster(registry=registry, **kwargs)
        finally:
            if metrics is not None:
                await metrics.close()

    return asyncio.run(_run())
