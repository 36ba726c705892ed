"""Cluster assembly: simulator + network + servers + cache clients.

This is the top-level experiment object: pick a protocol *variant*
(``"sc"``, ``"tsc"``, ``"cc"``, ``"tcc"``), a delta, clock quality, network
latency and policies, then drive client workload processes and harvest the
execution trace plus protocol statistics.

    cluster = Cluster(n_clients=4, variant="tsc", delta=0.5, seed=7)
    cluster.spawn(my_workload)          # one generator per client
    cluster.run(until=60.0)
    history = cluster.history()         # feed to repro.checkers
    print(cluster.aggregate_stats().hit_ratio)
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, List, Optional

from repro.clocks.physical import PerfectClock, SynchronizedClock, TimeServer
from repro.core.history import History
from repro.engine.stats import ClientStats
from repro.protocol.cache_client import (
    CausalCacheClient,
    StalenessAction,
    TimedCacheClient,
)
from repro.protocol.server import (
    CausalServer,
    ObjectDirectory,
    PhysicalServer,
    PushPolicy,
)
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel, Network, UniformLatency
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder, UniqueValueFactory

#: The four protocol variants of Section 5.
VARIANTS = ("sc", "tsc", "cc", "tcc")

#: A workload is a generator function: (cluster, client, rng) -> process.
WorkloadFn = Callable[["Cluster", Any, Any], Generator]


class Cluster:
    """A simulated deployment of the lifetime consistency protocol."""

    def __init__(
        self,
        n_clients: int,
        n_servers: int = 1,
        variant: str = "sc",
        delta: float = math.inf,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        push_policy: PushPolicy = PushPolicy.NONE,
        staleness_action: StalenessAction = StalenessAction.MARK_OLD,
        epsilon: float = 0.0,
        sync_interval: float = 1.0,
        initial_value: Any = 0,
        causal_clock: str = "vector",
        rev_entries: int = 2,
        drop_probability: float = 0.0,
        retry_timeout: Optional[float] = None,
        per_client_delta: Optional[List[float]] = None,
        delta_overrides=None,
        ring=None,
    ) -> None:
        """``causal_clock`` selects the logical clock of the CC/TCC
        variants: ``"vector"`` (exact, default) or ``"rev"`` (the
        constant-size R-entries plausible clock of Torres-Rojas & Ahamad,
        with ``rev_entries`` entries — Section 5.3 allows either; the REV
        variant makes causal consistency approximate, see
        ``benchmarks/bench_plausible_clocks.py``).

        ``per_client_delta`` gives each client its own freshness bound
        (the "multiple consistency levels in one system" idea of Kordale
        & Ahamad [23]: stricter clients pay more traffic, laxer clients
        less, and the shared ordering criterion still holds globally).
        ``delta_overrides`` (object name -> delta) applies the S-DSO [41]
        per-object bounds to every client.

        ``ring`` (a :class:`repro.ring.Ring` whose devices are the server
        ids ``0..n_servers-1``) customizes object placement — weighted
        devices, a different partition power.  Placement in the simulator
        is primary-only: each object keeps a single authoritative server,
        so every consistency argument of the one-server protocol carries
        over unchanged; the ring decides *which* server that is."""
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if causal_clock not in ("vector", "rev"):
            raise ValueError(
                f"causal_clock must be 'vector' or 'rev', got {causal_clock!r}"
            )
        if rev_entries <= 0:
            raise ValueError(f"rev_entries must be positive, got {rev_entries}")
        self.causal_clock = causal_clock
        self.rev_entries = rev_entries
        if variant in ("sc", "cc") and not math.isinf(delta):
            raise ValueError(f"variant {variant!r} takes no delta (use tsc/tcc)")
        if variant in ("tsc", "tcc") and math.isinf(delta) and per_client_delta is None:
            raise ValueError(f"variant {variant!r} needs a finite delta")
        if per_client_delta is not None and len(per_client_delta) != n_clients:
            raise ValueError(
                f"per_client_delta needs {n_clients} entries, "
                f"got {len(per_client_delta)}"
            )
        self._per_client_delta = per_client_delta
        self._delta_overrides = delta_overrides
        if n_clients <= 0 or n_servers <= 0:
            raise ValueError("need at least one client and one server")
        self.variant = variant
        self.delta = delta
        self.epsilon = epsilon
        self._sync_interval = sync_interval
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        if drop_probability > 0.0 and retry_timeout is None:
            raise ValueError(
                "a lossy network (drop_probability > 0) requires retry_timeout, "
                "otherwise dropped requests hang forever"
            )
        self.network = Network(
            self.sim,
            latency_model=latency or UniformLatency(0.01, 0.05),
            rng=self.rngs.stream("network"),
            drop_probability=drop_probability,
        )
        self.recorder = TraceRecorder(initial_value=initial_value)
        self.values = UniqueValueFactory()
        self._time_server = TimeServer(
            self.sim.time_source(),
            max_error=epsilon / 4.0,
            seed=self.rngs.stream("timeserver").getrandbits(32),
        )

        server_ids = list(range(n_servers))
        client_ids = list(range(n_servers, n_servers + n_clients))
        self.directory = ObjectDirectory(server_ids, ring=ring)

        causal = variant in ("cc", "tcc")
        self.servers: List[Any] = []
        for sid in server_ids:
            if causal:
                server = CausalServer(
                    sid, self.sim, self.network, vector_width=n_clients,
                    initial_value=initial_value, push_policy=push_policy,
                    clock=self._make_clock(f"server{sid}"),
                    zero_timestamp=self._zero_timestamp(slot=0),
                )
            else:
                server = PhysicalServer(
                    sid, self.sim, self.network, initial_value=initial_value,
                    push_policy=push_policy, clock=self._make_clock(f"server{sid}"),
                )
            self.servers.append(server)

        self.clients: List[Any] = []
        for slot, cid in enumerate(client_ids):
            client_delta = (
                per_client_delta[slot] if per_client_delta is not None else delta
            )
            if causal:
                client = CausalCacheClient(
                    cid, self.sim, self.network, self.directory,
                    slot=slot, vector_width=n_clients, delta=client_delta,
                    staleness_action=staleness_action, recorder=self.recorder,
                    clock=self._make_clock(f"client{cid}"),
                    lclock=self._logical_clock(slot),
                    zero_timestamp=self._zero_timestamp(slot),
                    retry_timeout=retry_timeout,
                    delta_overrides=delta_overrides,
                )
            else:
                client = TimedCacheClient(
                    cid, self.sim, self.network, self.directory,
                    delta=client_delta,
                    staleness_action=staleness_action, recorder=self.recorder,
                    clock=self._make_clock(f"client{cid}"),
                    retry_timeout=retry_timeout,
                    delta_overrides=delta_overrides,
                )
            self.clients.append(client)
            for server in self.servers:
                server.subscribe(cid)

    def _make_clock(self, name: str):
        """Perfect clocks for epsilon = 0; epsilon-synchronized drifting
        clocks otherwise (pairwise skew bounded by epsilon)."""
        if self.epsilon == 0.0:
            return PerfectClock(self.sim.time_source())
        rng = self.rngs.stream(f"clock:{name}")
        # Budget: server read error (eps/4 each way) + drift over the sync
        # interval must stay within eps/2 per clock.
        drift_budget = (self.epsilon / 4.0) / self.sync_interval_safe()
        drift = rng.uniform(-drift_budget, drift_budget)
        return SynchronizedClock(
            self.sim.time_source(),
            self._time_server,
            drift=drift,
            offset=rng.uniform(-self.epsilon / 4.0, self.epsilon / 4.0),
            sync_interval=self.sync_interval_safe(),
        )

    def sync_interval_safe(self) -> float:
        return getattr(self, "_sync_interval", 1.0)

    def _logical_clock(self, slot: int):
        """The causal variants' logical clock for one client (or None to
        use the client's default exact vector clock)."""
        if self.causal_clock == "vector":
            return None
        from repro.clocks.plausible import REVClock

        return REVClock(slot, self.rev_entries)

    def _zero_timestamp(self, slot: int):
        if self.causal_clock == "vector":
            return None
        from repro.clocks.plausible import REVClock

        return REVClock.zero(slot, self.rev_entries)

    # -- running workloads ---------------------------------------------------

    def spawn(self, workload: WorkloadFn) -> None:
        """Start one instance of ``workload`` per client."""
        for index, client in enumerate(self.clients):
            rng = self.rngs.stream(f"workload:{index}")
            self.sim.process(workload(self, client, rng), name=f"wl{index}")

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.sim.run(until)

    # -- results ---------------------------------------------------------------

    def history(self, validate: bool = True) -> History:
        """The execution trace as a :class:`History` for the checkers."""
        return self.recorder.history(validate=validate)

    def aggregate_stats(self) -> ClientStats:
        """Sum of all clients' protocol statistics."""
        total = ClientStats()
        for client in self.clients:
            total = total.merge(client.stats)
        return total

    @property
    def message_stats(self):
        return self.network.stats
