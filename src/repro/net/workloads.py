"""In-process localhost workloads: run, record, then check the trace.

The loop-closer for ``repro.net``: stand the real TCP stack up through
:class:`~repro.net.local.LocalStack`, connect real sites (each with its
own skewed-then-synchronized clock), drive a workload, and hand the
*recorded* execution to :func:`~repro.checkers.judge` with the
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
  past its deadline and the checkers (TSC and the late-read list) flag
  the late reads.
* :func:`random_net_cluster` — a uniform read/write mix over one
  ``pull``-mode server, optionally through lossy client links.
* :func:`ring_cluster` — the multi-server soak: ``n_servers`` servers on
  genuinely distinct timescales, ``n_clients`` ring-routed sites over a
  shared namespace, judged at the routers' composed epsilon
  (``max_site 2*(err_ref + max_dev err_dev)``).  On a clustered stack
  it optionally grows the ring mid-run (``add_device_midway``: a fresh
  server joins through the cluster — the donors copy the moved
  partitions from their own stores, the new primaries run the promotion
  rule, the epoch carries the cutover — while the routers keep reading
  until each holds the grown ring) or crashes a primary
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
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

from repro.checkers import judge
from repro.checkers.result import CheckResult
from repro.clocks.rebase import loop_time
from repro.core.history import History, HistoryError
from repro.core.operations import Operation
from repro.engine import messages
from repro.engine.stats import ClientStats
from repro.net.client import NetCacheClient, NetError
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.local import (
    FaultOutcome,
    LocalStack,
    default_skews,
    merge_history,
)
from repro.net.ring_router import RingRouter, RouterStats
from repro.ring.placement import PlacementError, PlacementStats
from repro.ring.ring import Ring
from repro.sim.trace import TraceRecorder, UniqueValueFactory

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
    #: The reads that are not on time at ``delta`` and ``epsilon``.
    late_reads: List[Operation]
    client_stats: Dict[int, ClientStats]
    client_offsets: Dict[int, float] = field(default_factory=dict)
    server_requests: int = 0
    pushes_sent: int = 0

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
    server = stack.servers[0]
    return ClusterReport(
        history=history,
        delta=delta,
        epsilon=epsilon,
        **judge(history, delta, epsilon)._asdict(),
        client_stats={c.client_id: c.stats for c in clients},
        client_offsets={c.client_id: c.clock.estimator.offset for c in clients},
        server_requests=server.engine.requests,
        pushes_sent=server.pushes_sent,
    )


async def drive_site(
    site: Any,
    rng: random.Random,
    objects: Sequence[str],
    write_fraction: float,
    think: float,
    values: UniqueValueFactory,
    *,
    ops: int = 0,
    until: Optional[float] = None,
    retry: Optional[float] = None,
) -> None:
    """One site's closed loop: sleep U(0, 2·think), pick an object, write
    it a fresh value with probability ``write_fraction``, else read it.
    ``ops`` operations, or until the loop clock reaches ``until``.  With
    ``retry`` an operation that fails on the ring or the wire is tried
    again ``retry`` seconds later, up to 40 times, then dropped."""
    issued = 0
    while (loop_time() < until) if until is not None else (issued < ops):
        issued += 1
        await asyncio.sleep(rng.uniform(0.0, 2 * think))
        obj = rng.choice(objects)
        write = rng.random() < write_fraction
        for _attempt in range(1 if retry is None else 40):
            try:
                if write:
                    await site.write(obj, values.next_value(site.client_id))
                else:
                    await site.read(obj)
                break
            except (PlacementError, NetError):
                if retry is None:
                    raise
                await asyncio.sleep(retry)


async def push_staleness_cluster(
    *,
    n_clients: int = 3,
    delta: float = 0.3,
    push_delay: float = 0.0,
    skew: float = 0.1,
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
        window = max(push_delay, delta) + 0.3

        async def read_loop(reader: NetCacheClient) -> None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + window
            while loop.time() < deadline:
                await reader.read("x")
                await asyncio.sleep(0.02)

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
        await asyncio.gather(*(
            drive_site(client, random.Random(seed + client.client_id),
                       objects, write_fraction, think, values, ops=rounds)
            for client in clients
        ))
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
    #: The reads that are not on time at ``delta`` and ``epsilon``.
    late_reads: List[Operation]
    router_stats: Dict[int, RouterStats]
    placement_stats: Dict[int, PlacementStats]
    server_requests: Dict[int, int]
    #: Seconds from the start of ``add_device_midway``'s joiner until
    #: every router held the grown ring (``ring``, at its epoch);
    #: ``None`` without it.
    join_seconds: Optional[float] = None
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
    under ``<store_root>/dev<id>`` (WAL policy ``fsync``), the joiner of
    ``add_device_midway`` included: the copies it is handed arrive as
    ordinary writes, logged before they are acknowledged.

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
    if add_device_midway and not cluster:
        raise ValueError("add_device_midway requires cluster=True")
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
    recorder = TraceRecorder()
    instruments = None
    if registry is not None:
        from repro.obs.instruments import TimedInstruments

        instruments = TimedInstruments(registry, delta)
        recorder.add_listener(instruments.on_op)
    values = UniqueValueFactory()
    client_skews = default_skews(n_clients, skew)
    join_seconds: Optional[float] = None
    fault: Optional[FaultOutcome] = None

    def mixed(router: RingRouter, rng_seed: int, **run: Any) -> Awaitable[None]:
        return drive_site(router, random.Random(rng_seed), objects,
                          write_fraction, think, values, **run)

    async with LocalStack(
        servers=n_servers, replicas=replicas, part_power=part_power,
        server_skew=server_skew, store_root=store_root, fsync=fsync,
        cluster=cluster_config, registry=registry,
    ) as stack:
        routers = [
            await stack.connect(
                i, delta=delta, write_quorum=write_quorum,
                read_policy=read_policy, recorder=recorder,
                skew=client_skews[i], pipeline_depth=pipeline_depth,
            )
            for i in range(n_clients)
        ]
        if instruments is not None:
            # The residual sync error is known only after the clock-sync
            # handshakes: judge with the worst bound, the epsilon the
            # merged trace is checked with offline.
            instruments.epsilon = max(r.epsilon_bound for r in routers)
        # Seed: every object gets a first real version on its full
        # replica set, so no read depends on the servers' initial value.
        for obj in objects:
            await routers[0].write(obj, values.next_value(routers[0].client_id))

        until = (
            loop_time() + duration if duration is not None else None
        )
        await asyncio.gather(*(
            mixed(r, seed + 31 * r.client_id, ops=rounds, until=until)
            for r in routers
        ))

        if kill_primary_midway:
            fault = await stack.kill_primary(
                objects[0],
                lambda: routers[0].write(
                    objects[0], values.next_value(routers[0].client_id)
                ),
            )
            # The workload resumes against the survivors; early rounds
            # may still race the routers' cutover, so they retry.  A write
            # whose attempt raised after a server installed it stays
            # readable but unrecorded: merge_history counts such reads.
            await asyncio.gather(*(
                mixed(r, seed + 97 * r.client_id, ops=max(rounds // 2, 5),
                      retry=probe_period / 4.0)
                for r in routers
            ))

        if add_device_midway:
            # Writes pause for the copy window (docs/RING.md); reads keep
            # flowing, each router on whichever ring it holds, until
            # every router has cut over to the one naming the joiner.
            joiner = await stack.add_server()
            started = loop_time()
            deadline = started + cluster_config.detection_bound + 10.0

            async def read_through_join(router: RingRouter) -> None:
                rng = random.Random(seed + router.client_id)
                while not all(joiner in r.ring.devices for r in routers):
                    if loop_time() > deadline:
                        raise TimeoutError(
                            f"not every router cut over to device {joiner}"
                        )
                    await router.read(rng.choice(objects))
                    await asyncio.sleep(think)

            await asyncio.gather(*(read_through_join(r) for r in routers))
            join_seconds = loop_time() - started
            stack.ring = routers[0].ring
            await asyncio.gather(*(
                mixed(r, seed + 31 * r.client_id + 1, ops=max(rounds // 2, 5))
                for r in routers
            ))

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
    return RingReport(
        history=history,
        ring=stack.ring,
        delta=delta,
        epsilon=epsilon,
        **judge(history, delta, epsilon)._asdict(),
        router_stats={r.client_id: r.stats for r in routers},
        placement_stats={r.client_id: r.placement.stats for r in routers},
        server_requests={d: s.engine.requests for d, s in stack.servers.items()},
        join_seconds=join_seconds,
        ontime=instruments.summary() if instruments is not None else None,
        fault=fault,
        unmatched_reads=unmatched,
    )


def run_ring_soak(
    *,
    metrics_port: Optional[int] = None,
    **kwargs,
) -> RingReport:
    """Synchronous wrapper around :func:`ring_cluster`.

    ``metrics_port`` (0 for an ephemeral port) serves the soak's
    registry on ``http://127.0.0.1:<port>/metrics`` for the run's
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
                registry, "127.0.0.1", metrics_port
            ).start()
        try:
            return await ring_cluster(registry=registry, **kwargs)
        finally:
            if metrics is not None:
                await metrics.close()

    return asyncio.run(_run())
