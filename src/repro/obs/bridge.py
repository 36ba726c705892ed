"""Pull-model bridges: export the existing stat structs into a registry.

The live stack already keeps its counters in plain structs —
:class:`~repro.engine.stats.ClientStats` in the cache clients,
:class:`~repro.ring.placement.PlacementStats` and
:class:`~repro.net.ring_router.RouterStats` in the ring stack, plain
ints on :class:`~repro.net.server.NetObjectServer`.  Each ``bind_*``
function registers a *collector* that reads the struct only at
scrape/snapshot time: the struct keeps native ``int`` arithmetic, the
registry stays the single export surface, and no count is kept twice.

A registry is scoped to one run, so a collector stays registered for
the registry's life.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

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

