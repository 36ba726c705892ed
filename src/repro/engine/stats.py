"""Per-client protocol statistics, exported through ``repro.obs``.

:class:`ClientStats` is the canonical counter struct of every cache
client (sim, asyncio twin, TCP, ring router).  It is *ported onto* the
:mod:`repro.obs` registry in the pull model: the fields stay native
``int``s (the sim hot path keeps plain ``+= 1`` arithmetic), and
:meth:`ClientStats.bind` registers the struct as a registry collector
that materializes the Prometheus families at scrape time.
:meth:`as_row` and :meth:`merge` remain as the thin bridge the benches
and tests were built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ClientStats:
    """Counters a cache client maintains while running a workload.

    * ``fresh_hits`` — reads served from cache with no messages;
    * ``validations`` — if-modified-since round trips (split into
      ``revalidated`` = answered STILL_VALID and ``refreshed`` = answered
      with a new version);
    * ``fetches`` — cold misses (no cached entry at all);
    * ``invalidations`` — cache entries dropped by the Context rules;
    * ``marked_old`` — entries demoted to *old* instead of dropped
      (Section 5.2 optimization);
    * ``pushes``/``push_invalidations`` — server-initiated traffic
      received;
    * ``retries`` — request retransmissions on lossy networks;
    * ``read_latencies`` — per-read completion latencies.

    Staleness is deliberately *not* counted here: it is a ground-truth
    property of the recorded execution, computed by
    :func:`repro.analysis.staleness_report` so the protocol cannot
    misreport itself.
    """

    reads: int = 0
    writes: int = 0
    fresh_hits: int = 0
    validations: int = 0
    revalidated: int = 0
    refreshed: int = 0
    fetches: int = 0
    invalidations: int = 0
    marked_old: int = 0
    pushes: int = 0
    push_invalidations: int = 0
    fetch_check_failures: int = 0
    retries: int = 0
    read_latencies: List[float] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served without any message."""
        return self.fresh_hits / self.reads if self.reads else 0.0

    @property
    def messages_per_read(self) -> float:
        """Round trips per read (validations + fetches, each 2 messages)."""
        if not self.reads:
            return 0.0
        return 2.0 * (self.validations + self.fetches) / self.reads

    @property
    def mean_read_latency(self) -> float:
        if not self.read_latencies:
            return 0.0
        return sum(self.read_latencies) / len(self.read_latencies)

    def merge(self, other: "ClientStats") -> "ClientStats":
        """Aggregate counters across clients (for fleet-level reporting)."""
        merged = ClientStats()
        for name in (
            "reads", "writes", "fresh_hits", "validations", "revalidated",
            "refreshed", "fetches", "invalidations", "marked_old", "pushes",
            "push_invalidations", "fetch_check_failures", "retries",
        ):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.read_latencies = self.read_latencies + other.read_latencies
        return merged

    def as_row(self) -> Dict[str, float]:
        """A flat dict for table rendering in benches."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "hit_ratio": round(self.hit_ratio, 4),
            "msgs_per_read": round(self.messages_per_read, 4),
            "validations": self.validations,
            "fetches": self.fetches,
            "invalidations": self.invalidations,
            "retries": self.retries,
            "mean_read_latency": round(self.mean_read_latency, 4),
        }

    # -- the repro.obs port ---------------------------------------------------

    def collect_families(
        self, labels: Optional[Dict[str, str]] = None
    ) -> List[Dict[str, Any]]:
        """The struct as registry metric families (the collector body).

        Cache events (hits, validations split by outcome, fetches,
        invalidations, mark-old demotions = lifetime expirations,
        revalidations = lifetime renewals) land in one labeled family so
        dashboards can stack them; read latencies export as a
        sum/count pair (mean recoverable at query time).
        """
        from repro.obs.metrics import family

        base = {k: str(v) for k, v in (labels or {}).items()}

        def with_label(**extra: str) -> Dict[str, str]:
            out = dict(base)
            out.update(extra)
            return out

        return [
            family("repro_client_ops_total", "counter",
                   "Client operations by kind",
                   [(with_label(kind="read"), self.reads),
                    (with_label(kind="write"), self.writes)]),
            family("repro_client_cache_events_total", "counter",
                   "Lifetime-protocol cache events by kind",
                   [(with_label(event="fresh_hit"), self.fresh_hits),
                    (with_label(event="validation"), self.validations),
                    (with_label(event="revalidated"), self.revalidated),
                    (with_label(event="refreshed"), self.refreshed),
                    (with_label(event="fetch"), self.fetches),
                    (with_label(event="invalidation"), self.invalidations),
                    (with_label(event="marked_old"), self.marked_old),
                    (with_label(event="fetch_check_failure"),
                     self.fetch_check_failures)]),
            family("repro_client_pushes_total", "counter",
                   "Server-initiated frames received by kind",
                   [(with_label(kind="push"), self.pushes),
                    (with_label(kind="invalidate"), self.push_invalidations)]),
            family("repro_client_retries_total", "counter",
                   "Request retransmissions on lossy links",
                   [(base, self.retries)]),
            family("repro_client_read_latency_seconds_sum", "counter",
                   "Summed read completion latency",
                   [(base, sum(self.read_latencies))]),
            family("repro_client_read_latency_reads", "counter",
                   "Reads contributing to the latency sum",
                   [(base, len(self.read_latencies))]),
            family("repro_client_hit_ratio", "gauge",
                   "Fraction of reads served without any message",
                   [(base, self.hit_ratio)]),
        ]
