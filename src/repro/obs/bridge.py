"""Pull-model bridges: export the existing stat structs into a registry.

Every layer of the repo already keeps counters in plain structs —
:class:`~repro.engine.stats.ClientStats` in the cache clients,
:class:`~repro.checkers.search.SearchStats` in the serialization-search
engine, :class:`~repro.ring.placement.PlacementStats` and
:class:`~repro.net.ring_router.RouterStats` in the ring stack, ad-hoc
ints in the servers and the sim kernel.  Rewriting those hot paths to
push into metric children would tax the sim's tight loops for nothing;
instead each ``bind_*`` function registers a *collector* that reads the
struct only at scrape/snapshot time.  The struct keeps native ``int``
arithmetic (the ≤5 % overhead budget of ISSUE 4 is met by construction)
and the registry stays the single export surface.

Every binder returns the collector so callers can
:meth:`~repro.obs.metrics.Registry.unregister_collector` it when the
bound object's run ends.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import Registry, family

Labels = Dict[str, str]


def _with(labels: Optional[Mapping[str, Any]], **extra: Any) -> Labels:
    out = {k: str(v) for k, v in (labels or {}).items()}
    out.update({k: str(v) for k, v in extra.items()})
    return out


def bind_client_stats(
    registry: Registry, stats: Any, **labels: Any
) -> Callable:
    """Export a :class:`~repro.engine.stats.ClientStats` (anything with
    its ``collect_families`` bridge) under the given constant labels —
    typically ``site=<client id>`` and a ``stack`` discriminator."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        return stats.collect_families(base)

    return registry.register_collector(collector)


def bind_search_stats(
    registry: Registry, stats: Any, **labels: Any
) -> Callable:
    """Export a checker :class:`~repro.checkers.search.SearchStats`:
    states, memo hits, per-reason prunes, frontier depth, wall time."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        prunes = [
            (_with(base, reason=reason), count)
            for reason, count in sorted(stats.prunes.items())
        ]
        return [
            family("repro_checker_states_total", "counter",
                   "Serialization-search states expanded",
                   [(base, stats.states)]),
            family("repro_checker_memo_hits_total", "counter",
                   "States skipped via the failure memo",
                   [(base, stats.memo_hits)]),
            family("repro_checker_prunes_total", "counter",
                   "Search prunes by reason", prunes),
            family("repro_checker_frontier_depth", "gauge",
                   "Deepest partial serialization reached",
                   [(base, stats.max_frontier_depth)]),
            family("repro_checker_wall_seconds_total", "counter",
                   "Seconds spent inside the search engine",
                   [(base, stats.wall_time)]),
            family("repro_checker_budget", "gauge",
                   "Configured search state budget",
                   [(base, stats.budget)]),
        ]

    return registry.register_collector(collector)


def bind_placement_stats(
    registry: Registry, stats: Any, **labels: Any
) -> Callable:
    """Export a :class:`~repro.ring.placement.PlacementStats`: repairs
    queued/done/late, quorum failures, fallback reads, replica acks."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        fields = stats.as_dict()
        return [
            family("repro_ring_placement_ops_total", "counter",
                   "Placement-level operations by kind",
                   [(_with(base, kind="write"), fields["writes"]),
                    (_with(base, kind="read"), fields["reads"])]),
            family("repro_ring_fallback_reads_total", "counter",
                   "Reads served by a non-primary replica",
                   [(base, fields["fallback_reads"])]),
            family("repro_ring_replica_acks_total", "counter",
                   "Replica (non-primary) write acknowledgements",
                   [(base, fields["replica_acks"])]),
            family("repro_ring_quorum_failures_total", "counter",
                   "Writes that finished below the W quorum",
                   [(base, fields["quorum_failures"])]),
            family("repro_ring_repairs_total", "counter",
                   "Anti-entropy repairs by outcome",
                   [(_with(base, outcome="queued"), fields["repairs_queued"]),
                    (_with(base, outcome="done"), fields["repairs_done"]),
                    (_with(base, outcome="late"), fields["repairs_late"])]),
        ]

    return registry.register_collector(collector)


def bind_router_stats(
    registry: Registry, stats: Any, **labels: Any
) -> Callable:
    """Export a :class:`~repro.net.ring_router.RouterStats`: per-device
    (per-shard) read/write counts plus the off-ring guard counter."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        reads = [
            (_with(base, device=dev), count)
            for dev, count in sorted(stats.reads_by_device.items())
        ]
        writes = [
            (_with(base, device=dev), count)
            for dev, count in sorted(stats.writes_by_device.items())
        ]
        return [
            family("repro_ring_reads_total", "counter",
                   "Ring-routed reads by serving device", reads),
            family("repro_ring_writes_total", "counter",
                   "Ring-routed writes by device (primary fan-out)", writes),
            family("repro_ring_router_ops_total", "counter",
                   "Router-level operations by kind",
                   [(_with(base, kind="read"), stats.reads),
                    (_with(base, kind="write"), stats.writes)]),
            family("repro_ring_off_ring_reads_total", "counter",
                   "Reads served by a device outside the replica set "
                   "(routing bug guard; must stay 0)",
                   [(base, stats.off_ring_reads)]),
            family("repro_ring_anti_entropy_errors_total", "counter",
                   "Anti-entropy loop deaths from non-cancellation errors",
                   [(base, stats.anti_entropy_errors)]),
        ]

    return registry.register_collector(collector)


def bind_simulator(
    registry: Registry, sim: Any, **labels: Any
) -> Callable:
    """Export a :class:`~repro.sim.kernel.Simulator`'s kernel gauges:
    events processed, pending queue depth, simulated now."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        return [
            family("repro_sim_events_total", "counter",
                   "Events processed by the simulation kernel",
                   [(base, sim.events_processed)]),
            family("repro_sim_pending_events", "gauge",
                   "Scheduled-but-unprocessed kernel events",
                   [(base, sim.pending)]),
            family("repro_sim_now_seconds", "gauge",
                   "Current simulated time",
                   [(base, sim.now)]),
        ]

    return registry.register_collector(collector)


def bind_sim_server(
    registry: Registry, server: Any, **labels: Any
) -> Callable:
    """Export a sim-side authoritative server
    (:class:`~repro.protocol.server.SimServer`): installs, discards,
    store size, subscribers."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        return [
            family("repro_server_writes_total", "counter",
                   "Write installs by outcome",
                   [(_with(base, outcome="installed"), server.writes_installed),
                    (_with(base, outcome="discarded"), server.writes_discarded)]),
            family("repro_server_objects", "gauge",
                   "Objects materialized in the store",
                   [(base, len(server.store))]),
            family("repro_server_subscribers", "gauge",
                   "Clients subscribed for push propagation",
                   [(base, len(server.subscribers))]),
        ]

    return registry.register_collector(collector)


def bind_net_server(
    registry: Registry, server: Any, **labels: Any
) -> Callable:
    """Export a :class:`~repro.net.server.NetObjectServer`: requests by
    kind, propagation fan-out, connection/frame/byte accounting, the
    exactly-once layer, and the draining flag (labels typically
    ``device=<id>`` in a ring, or ``role=server`` standalone)."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        requests = [
            (_with(base, kind=kind), count)
            for kind, count in sorted(server.requests_by_kind.items())
        ]
        transport = server.transport_totals()
        return [
            family("repro_net_requests_total", "counter",
                   "Frames dispatched by the object server, by kind",
                   requests),
            family("repro_net_propagation_sent_total", "counter",
                   "Server-initiated propagation frames by kind",
                   [(_with(base, kind="push"), server.pushes_sent),
                    (_with(base, kind="invalidate"),
                     server.invalidations_sent)]),
            family("repro_net_connections_accepted_total", "counter",
                   "TCP connections accepted since start",
                   [(base, server.connections_accepted)]),
            family("repro_net_connections_active", "gauge",
                   "Currently open client connections",
                   [(base, len(server._connections))]),
            family("repro_net_subscribers", "gauge",
                   "Connections subscribed for push propagation",
                   [(base, len(server._subscribers))]),
            family("repro_net_frames_total", "counter",
                   "Frames moved over server connections, by direction",
                   [(_with(base, direction=d), v)
                    for d, v in sorted(transport["frames"].items())]),
            family("repro_net_bytes_total", "counter",
                   "Bytes moved over server connections, by direction",
                   [(_with(base, direction=d), v)
                    for d, v in sorted(transport["bytes"].items())]),
            family("repro_net_dedup_replays_total", "counter",
                   "Retransmitted requests answered from the reply cache "
                   "(executed exactly once)",
                   [(base, server.engine.dedup_replays)]),
            family("repro_net_reply_cache_entries", "gauge",
                   "Replies retained for exactly-once replay",
                   [(base, len(server.engine.replies))]),
            family("repro_net_objects", "gauge",
                   "Objects materialized in the server store",
                   [(base, len(server.engine.store))]),
            family("repro_net_draining", "gauge",
                   "1 while a graceful shutdown drain is in progress",
                   [(base, 1 if server.draining else 0)]),
        ]

    return registry.register_collector(collector)


def bind_monitor_stats(
    registry: Registry, stats: Any, **labels: Any
) -> Callable:
    """Export an online-monitor
    :class:`~repro.checkers.online.MonitorStats` (reads/writes/late
    reads and the running threshold)."""
    base = _with(labels)

    def collector() -> Iterable[Dict[str, Any]]:
        late = [
            (_with(base, obj=obj), count)
            for obj, count in sorted(stats.late_by_object.items())
        ]
        return [
            family("repro_monitor_ops_total", "counter",
                   "Operations seen by the online monitor",
                   [(_with(base, kind="read"), stats.reads),
                    (_with(base, kind="write"), stats.writes)]),
            family("repro_monitor_late_reads_total", "counter",
                   "Reads the online monitor flagged late",
                   [(base, stats.late_reads)]),
            family("repro_monitor_late_reads_by_object_total", "counter",
                   "Late reads split by object", late),
            family("repro_monitor_threshold_seconds", "gauge",
                   "Running timedness threshold of the observed stream",
                   [(base, stats.threshold)]),
        ]

    return registry.register_collector(collector)
