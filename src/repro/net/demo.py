"""In-process localhost clusters: run, record, then check the trace.

The loop-closer for ``repro.net``: start a real TCP server, connect real
clients (each with its own skewed-then-synchronized clock), drive a
workload, and hand the *recorded* execution to the offline checkers with
the ``epsilon`` the clock-sync layer itself reports.  Everything runs on
one event loop so a single :class:`~repro.sim.trace.TraceRecorder` sees
the whole cluster — the multi-process deployment (``repro serve`` /
``repro client``) records per-process traces instead.

Two canned scenarios:

* :func:`run_push_staleness_demo` — the acceptance scenario: one writer,
  N-1 subscribed readers in ``push`` mode, clock skew on every client,
  and a fault injector delaying only ``push`` frames.  With delay within
  the bound the trace satisfies TSC(delta); with delay > delta the
  readers keep serving the old version from cache past its deadline and
  the checkers (offline TSC and the online monitor) flag the late reads.
* :func:`run_random_net_workload` — a uniform read/write mix in ``pull``
  mode, for latency/hit-ratio measurements as a function of delta
  (``benchmarks/bench_net_delta.py``).
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkers import check_sc, check_tsc
from repro.checkers.online import OnlineTimedMonitor, ReadVerdict
from repro.checkers.result import CheckResult
from repro.core.history import History
from repro.engine import messages
from repro.engine.stats import ClientStats
from repro.net.client import NetCacheClient
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.server import NetObjectServer
from repro.sim.trace import TraceRecorder, UniqueValueFactory


@dataclass
class ClusterReport:
    """Everything a caller needs to judge one cluster run."""

    history: History
    delta: float
    epsilon: float
    tsc: CheckResult
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


def _judge(history: History, delta: float, epsilon: float) -> Tuple[
    CheckResult, CheckResult, List[ReadVerdict]
]:
    """Offline TSC + SC verdicts plus per-read online-monitor verdicts."""
    tsc = check_tsc(history, delta, epsilon)
    sc = check_sc(history)
    monitor = OnlineTimedMonitor(delta, epsilon=epsilon,
                                 initial_value=history.initial_value)
    ordered = sorted(history.operations, key=lambda op: (op.time, op.uid))
    verdicts = monitor.observe_all(ordered)
    return tsc, sc, verdicts


def _report(
    history: History,
    delta: float,
    clients: Sequence[NetCacheClient],
    server: NetObjectServer,
) -> ClusterReport:
    epsilon = max(client.epsilon_bound for client in clients)
    tsc, sc, verdicts = _judge(history, delta, epsilon)
    return ClusterReport(
        history=history,
        delta=delta,
        epsilon=epsilon,
        tsc=tsc,
        sc=sc,
        verdicts=verdicts,
        client_stats={c.client_id: c.stats for c in clients},
        client_offsets={c.client_id: c.clock.estimator.offset for c in clients},
        server_requests=server.requests,
        pushes_sent=server.pushes_sent,
    )


async def _start_cluster(
    server: NetObjectServer, clients: Sequence[NetCacheClient]
) -> None:
    await server.start()
    for client in clients:
        client.port = server.port
        await client.connect()


async def _stop_cluster(
    server: NetObjectServer, clients: Sequence[NetCacheClient]
) -> None:
    for client in clients:
        await client.close()
    await server.close()


def default_skews(n_clients: int, magnitude: float) -> List[float]:
    """Alternating +/- skews so no two clients share a clock error."""
    return [
        magnitude * (1 + i // 2) * (1 if i % 2 == 0 else -1)
        for i in range(n_clients)
    ]


async def push_staleness_cluster(
    *,
    n_clients: int = 3,
    delta: float = 0.3,
    push_delay: float = 0.0,
    skew: float = 0.1,
    hold: Optional[float] = None,
    read_period: float = 0.02,
    host: str = "127.0.0.1",
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
    server = NetObjectServer(host, 0, propagation="push",
                             fault_factory=fault_factory)
    skews = default_skews(n_clients, skew)
    clients = [
        NetCacheClient(i, host, 0, delta=delta, mode="push",
                       recorder=recorder, skew=skews[i])
        for i in range(n_clients)
    ]
    await _start_cluster(server, clients)
    try:
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
    finally:
        await _stop_cluster(server, clients)
    return _report(recorder.history(), delta, clients, server)


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
    host: str = "127.0.0.1",
) -> ClusterReport:
    """A uniform random workload over a pull-mode cluster."""
    recorder = TraceRecorder()
    values = UniqueValueFactory()
    server = NetObjectServer(host, 0, propagation="none")
    skews = default_skews(n_clients, skew)
    clients = [
        NetCacheClient(
            i, host, 0, delta=delta, mode="pull", recorder=recorder,
            skew=skews[i],
            faults=FaultInjector(client_faults, kinds={
                messages.FETCH, messages.VALIDATE, messages.WRITE,
            }) if client_faults is not None else None,
        )
        for i in range(n_clients)
    ]
    await _start_cluster(server, clients)
    try:
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
    finally:
        await _stop_cluster(server, clients)
    return _report(recorder.history(), delta, clients, server)


def run_random_net_workload(**kwargs) -> ClusterReport:
    """Synchronous wrapper around :func:`random_net_cluster`."""
    return asyncio.run(random_net_cluster(**kwargs))
