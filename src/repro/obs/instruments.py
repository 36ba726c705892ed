"""Timed-consistency instruments on top of the metrics core.

The paper's Section 6 evaluates the lifetime protocol by the fraction of
operations that execute *on time*; the offline checkers establish that
number after the fact.  These instruments compute the same quantities
online, with bounded memory, so a live stack (TCP servers, ring routers,
the sim's async twin) can export them from ``/metrics`` continuously:

* :class:`VisibilityLag` — the observed age of served/propagated
  versions (``now - T(w)``), as a histogram against the freshness bound
  ``delta``, with a violation counter;
* :class:`OnTimeRatio` — the Definition 1/2 on-time read fraction,
  judged per read from a bounded per-object window of recent writes
  (the online sibling of
  :class:`repro.checkers.online.OnlineTimedMonitor`, trading unbounded
  write memory for an explicit *unjudged* bucket — see
  docs/OBSERVABILITY.md for the window-tolerance semantics);
* :class:`EventTrace` — a ring buffer of structured operation events
  with JSONL export in the docs/TRACE_FORMAT.md operation shape, so the
  tail of a live run can always be handed to the offline checkers;
* :class:`TimedInstruments` — the bundle the net stack wires in: one
  call per completed read/write feeds all three.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import Registry, exponential_buckets

#: Default per-object recent-write window of :class:`OnTimeRatio`.
DEFAULT_WINDOW = 64

#: Default capacity of :class:`EventTrace`.
DEFAULT_TRACE_CAPACITY = 4096


class OnTimeVerdict(NamedTuple):
    """One read's online judgement.

    ``on_time`` is ``True``/``False`` when the window sufficed to decide
    the Definition 1/2 condition, ``None`` when the writer fell out of
    the window and no retained write settles it (*unjudged*).  ``lag`` is
    ``t_read - T(writer)`` (``None`` when the writer is unknown);
    ``required_delta`` is the smallest delta that would have made the
    read on time, given what the window retained.
    """

    on_time: Optional[bool]
    lag: Optional[float]
    required_delta: float


class VisibilityLag:
    """Observed version age vs the freshness bound.

    ``observe(lag)`` records how old the observed version was at the
    moment of observation.  What counts as a *violation* depends on the
    call site: for propagation events (a push arriving at a cache) an
    age beyond ``delta + epsilon`` is by itself a missed bound, which is
    the default; for reads, an old version is only a violation when a
    newer write existed outside the bound — the caller then passes the
    :class:`OnTimeRatio` judgement as ``violated`` explicitly.
    """

    def __init__(
        self,
        registry: Registry,
        delta: float,
        epsilon: float = 0.0,
        *,
        name: str = "repro_visibility_lag_seconds",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.delta = delta
        self.epsilon = epsilon
        self.histogram = registry.histogram(
            name,
            "Age of the observed version at observation time (seconds)",
            buckets=buckets if buckets is not None else exponential_buckets(),
        )
        self.violations = registry.counter(
            "repro_visibility_violations_total",
            "Observations that missed the delta freshness bound",
        )
        registry.gauge(
            "repro_visibility_delta_seconds",
            "The freshness bound delta these instruments run at",
        ).set_function(lambda: self.delta)
        registry.gauge(
            "repro_visibility_epsilon_seconds",
            "The clock precision epsilon discounted by the judgements",
        ).set_function(lambda: self.epsilon)

    def observe(self, lag: float, violated: Optional[bool] = None) -> None:
        lag = max(lag, 0.0)
        self.histogram.observe(lag)
        if violated is None:
            violated = (
                not math.isinf(self.delta)
                and lag > self.delta + self.epsilon
            )
        if violated:
            self.violations.inc()


class _ObjectWindow:
    """The recent writes to one object, in effective-time order."""

    __slots__ = ("writes", "evicted")

    def __init__(self, capacity: int) -> None:
        self.writes: Deque[Tuple[float, Any]] = deque(maxlen=capacity)
        self.evicted = 0

    def add(self, time: float, value: Any) -> None:
        if len(self.writes) == self.writes.maxlen:
            self.evicted += 1
        if not self.writes or time >= self.writes[-1][0]:
            self.writes.append((time, value))
            return
        # Slightly out-of-order arrival (completion order across sites):
        # keep the window sorted with a short right-to-left walk.
        items = list(self.writes)
        at = len(items)
        while at > 0 and items[at - 1][0] > time:
            at -= 1
        items.insert(at, (time, value))
        self.writes.clear()
        self.writes.extend(items[-self.writes.maxlen:])


class OnTimeRatio:
    """Online Definition 1/2 on-time read fraction, bounded memory.

    A read of value ``v`` (written by ``w`` at ``T(w)``) is **late** iff
    some other write ``w'`` to the same object satisfies::

        T(w') > T(w) + epsilon   and   T(w') < T(r) - delta - epsilon

    (Definition 2's comparison; ``epsilon = 0`` gives Definition 1).
    The offline monitor keeps every write; this instrument keeps the
    last ``window`` writes per object.  When the writer is still in the
    window the judgement is *exact*.  When it is not, a retained write
    older than ``T(r) - delta - epsilon`` still proves the read late
    (every retained write is newer than the evicted writer); otherwise
    the read is counted **unjudged** — the documented window tolerance
    (a healthy run whose objects see fewer than ``window`` writes per
    delta interval never produces unjudged reads).
    """

    def __init__(
        self,
        registry: Registry,
        delta: float,
        epsilon: float = 0.0,
        *,
        window: int = DEFAULT_WINDOW,
        initial_value: Any = 0,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.delta = delta
        self.epsilon = epsilon
        self.window = window
        self.initial_value = initial_value
        self._objects: Dict[str, _ObjectWindow] = {}
        reads = registry.counter(
            "repro_ontime_reads_total",
            "Reads by online Definition 1/2 verdict",
            labels=("verdict",),
        )
        self._on_time = reads.labels(verdict="on_time")
        self._late = reads.labels(verdict="late")
        self._unjudged = reads.labels(verdict="unjudged")
        self._writes = registry.counter(
            "repro_ontime_writes_total",
            "Writes observed by the on-time instrument",
        )
        registry.gauge(
            "repro_ontime_ratio",
            "On-time fraction of judged reads (Definition 1/2, online)",
        ).set_function(lambda: self.ratio)
        registry.gauge(
            "repro_ontime_required_delta_seconds",
            "Running timedness threshold: the delta the stream needed so far",
        ).set_function(lambda: self.required_delta)
        self.required_delta = 0.0

    # -- feeding ---------------------------------------------------------

    def observe_write(self, obj: str, value: Any, time: float) -> None:
        window = self._objects.get(obj)
        if window is None:
            window = self._objects[obj] = _ObjectWindow(self.window)
        window.add(time, value)
        self._writes.inc()

    def observe_read(self, obj: str, value: Any, time: float) -> OnTimeVerdict:
        window = self._objects.get(obj)
        writes = window.writes if window is not None else ()
        cutoff = time - self.delta - self.epsilon
        writer_at = None
        for index in range(len(writes) - 1, -1, -1):
            if writes[index][1] == value:
                writer_at = index
                break
        if writer_at is not None:
            writer_time = writes[writer_at][0]
            verdict = self._judge(writes, writer_at, writer_time, time, cutoff)
        elif value == self.initial_value and (window is None or window.evicted == 0):
            # Reading the pre-history value: every retained write is a
            # candidate newer write.
            verdict = self._judge(writes, -1, -math.inf, time, cutoff)
        else:
            # The writer predates the window.  A retained write older
            # than the cutoff still proves lateness; otherwise the
            # window cannot decide.
            if writes and writes[0][0] < cutoff:
                verdict = OnTimeVerdict(False, None, time - writes[0][0] - self.epsilon)
            else:
                verdict = OnTimeVerdict(None, None, 0.0)
        if verdict.on_time is True:
            self._on_time.inc()
        elif verdict.on_time is False:
            self._late.inc()
        else:
            self._unjudged.inc()
        self.required_delta = max(self.required_delta, verdict.required_delta)
        return verdict

    def _judge(
        self,
        writes,
        writer_at: int,
        writer_time: float,
        time: float,
        cutoff: float,
    ) -> OnTimeVerdict:
        lag = None if math.isinf(writer_time) else time - writer_time
        late = False
        required = 0.0
        for index in range(writer_at + 1, len(writes)):
            w_time = writes[index][0]
            if w_time <= writer_time + self.epsilon:
                continue  # within the clock precision of the writer
            required = max(required, time - w_time - self.epsilon)
            if w_time < cutoff:
                late = True
        return OnTimeVerdict(not late, lag, max(required, 0.0))

    # -- summary ---------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        return {
            "on_time": int(self._on_time.value),
            "late": int(self._late.value),
            "unjudged": int(self._unjudged.value),
            "writes": int(self._writes.value),
        }

    @property
    def judged(self) -> int:
        return int(self._on_time.value + self._late.value)

    @property
    def ratio(self) -> float:
        """On-time fraction of *judged* reads (1.0 when nothing judged:
        an empty stream has violated nothing)."""
        judged = self.judged
        if judged == 0:
            return 1.0
        return self._on_time.value / judged


class EventTrace:
    """A bounded ring of structured operation events.

    Events carry the docs/TRACE_FORMAT.md operation fields (``kind``,
    ``site``, ``obj``, ``value``, ``time``, optional ``start``/``end``),
    so the retained tail of a live run can be exported as JSONL or as a
    checkable history payload at any moment.  ``dropped`` counts events
    the ring has forgotten.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        *,
        registry: Optional[Registry] = None,
        initial_value: Any = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.initial_value = initial_value
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0
        if registry is not None:
            registry.gauge(
                "repro_trace_events",
                "Operation events currently retained by the trace ring",
            ).set_function(lambda: len(self._events))
            self._dropped_counter = registry.counter(
                "repro_trace_dropped_total",
                "Operation events evicted from the trace ring",
            )
            self._dropped_counter.labels()  # materialize the zero sample
        else:
            self._dropped_counter = None

    def record(
        self,
        kind: str,
        site: int,
        obj: str,
        value: Any,
        time: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **extra: Any,
    ) -> None:
        if kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {kind!r}")
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
            if self._dropped_counter is not None:
                self._dropped_counter.inc()
        event: Dict[str, Any] = {
            "kind": kind, "site": site, "obj": obj, "value": value,
            "time": time,
        }
        if start is not None:
            event["start"] = start
        if end is not None:
            event["end"] = end
        event.update(extra)
        self._events.append(event)

    def record_read(self, site: int, obj: str, value: Any, time: float,
                    **kw: Any) -> None:
        self.record("r", site, obj, value, time, **kw)

    def record_write(self, site: int, obj: str, value: Any, time: float,
                     **kw: Any) -> None:
        self.record("w", site, obj, value, time, **kw)

    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def export_jsonl(self, path: str) -> int:
        """One operation object per line; returns the number written."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")
        return len(events)

    def to_history_payload(self) -> Dict[str, Any]:
        """The docs/TRACE_FORMAT.md top-level payload for the retained
        tail (operations sorted by effective time)."""
        return {
            "initial_value": self.initial_value,
            "operations": sorted(self.events(), key=lambda e: e["time"]),
        }


class StoreInstruments:
    """WAL / snapshot / recovery metrics for one :mod:`repro.store`
    durable store.

    Families carry a ``store`` label so several stores (one per ring
    device, say) can share a registry.  The histogram is fed by the
    WAL's ``on_fsync`` duration hook; the snapshot-age gauge is pulled
    at scrape time from the store itself (:meth:`bind_snapshot_age`).
    """

    def __init__(self, registry: Registry, store: Any = "server") -> None:
        self.registry = registry
        label = {"store": str(store)}
        self.fsync_seconds = registry.histogram(
            "repro_store_fsync_seconds",
            "Duration of WAL fsync calls (seconds)",
            labels=("store",),
            buckets=exponential_buckets(start=0.00001, count=16),
        ).labels(**label)
        self.wal_records = registry.counter(
            "repro_store_wal_records_total",
            "Records appended to the write-ahead log",
            labels=("store",),
        ).labels(**label)
        self.wal_bytes = registry.counter(
            "repro_store_wal_bytes_total",
            "Bytes appended to the write-ahead log",
            labels=("store",),
        ).labels(**label)
        self.snapshots = registry.counter(
            "repro_store_snapshots_total",
            "Compacted snapshots written",
            labels=("store",),
        ).labels(**label)
        self._snapshot_age = registry.gauge(
            "repro_store_snapshot_age_seconds",
            "Wall seconds since the last snapshot (+inf when none)",
            labels=("store",),
        ).labels(**label)
        self.recoveries = registry.counter(
            "repro_store_recoveries_total",
            "Recovery (open) events",
            labels=("store",),
        ).labels(**label)
        self.recovery_seconds = registry.counter(
            "repro_store_recovery_seconds_total",
            "Wall time spent in recovery",
            labels=("store",),
        ).labels(**label)
        self.replayed_records = registry.counter(
            "repro_store_replayed_records_total",
            "WAL records replayed during recoveries",
            labels=("store",),
        ).labels(**label)
        self.quarantined_bytes = registry.counter(
            "repro_store_quarantined_bytes_total",
            "Corrupt WAL-tail bytes quarantined during recoveries",
            labels=("store",),
        ).labels(**label)
        self.old_versions = registry.counter(
            "repro_store_old_marked_total",
            "Versions marked old at recovery (checking time < t - delta)",
            labels=("store",),
        ).labels(**label)
        self.revalidations = registry.counter(
            "repro_store_revalidations_total",
            "Recovered-old versions re-proved current on first touch",
            labels=("store",),
        ).labels(**label)

    def on_fsync(self, seconds: float) -> None:
        self.fsync_seconds.observe(seconds)

    def on_append_many(self, count: int, nbytes: int) -> None:
        self.wal_records.inc(count)
        self.wal_bytes.inc(nbytes)

    def on_snapshot(self) -> None:
        self.snapshots.inc()

    def on_revalidation(self) -> None:
        self.revalidations.inc()

    def on_recovery(self, recovered: Any) -> None:
        """Record one :class:`~repro.store.recovery.RecoveredState`."""
        self.recoveries.inc()
        self.recovery_seconds.inc(max(recovered.recovery_seconds, 0.0))
        self.replayed_records.inc(recovered.replayed_records)
        self.quarantined_bytes.inc(recovered.quarantined_bytes)
        self.old_versions.inc(len(recovered.old_objects))

    def bind_snapshot_age(self, fn) -> None:
        self._snapshot_age.set_function(fn)


class PipelineInstruments:
    """Request-pipeline metrics for the exactly-once TCP layer.

    One instance per endpoint, labeled by ``side`` (``client`` or
    ``server``) plus optional ``site``/``device`` discriminators — the
    label *names* are fixed so routers, standalone clients, and servers
    can all share one registry (a family's label names must agree).

    * ``repro_net_batch_size`` — objects per ``validate-batch`` frame
      (:meth:`on_batch`);
    * ``repro_net_outstanding_requests`` — pipelined requests in flight,
      pulled at scrape time (:meth:`bind_outstanding`).

    The gauge exists for an endpoint that binds it: the client.
    """

    LABEL_NAMES = ("side", "site", "device")

    def __init__(
        self,
        registry: Registry,
        side: str = "client",
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.registry = registry
        # Keep only the fixed label names (extra deployment labels like
        # ``role``/``stack`` are dropped): the family's label *names*
        # must agree across every client, server, and router sharing
        # the registry.
        given = {k: str(v) for k, v in (labels or {}).items()}
        label = {name: given.get(name, "") for name in self.LABEL_NAMES}
        label["side"] = str(side)
        self._label = label
        self.batch_size = registry.histogram(
            "repro_net_batch_size",
            "Objects carried by one validate-batch frame",
            labels=self.LABEL_NAMES,
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).labels(**label)

    def on_batch(self, size: int) -> None:
        self.batch_size.observe(size)

    def bind_outstanding(self, fn) -> None:
        self.registry.gauge(
            "repro_net_outstanding_requests",
            "Pipelined requests issued and not yet answered",
            labels=self.LABEL_NAMES,
        ).labels(**self._label).set_function(fn)


class ClusterInstruments:
    """Failure-detector and failover metrics for one
    :class:`~repro.cluster.swim.SwimAgent`.

    Families carry a ``member`` label so every member of a co-hosted
    cluster (the soak harness, tests) can share one registry:

    * ``repro_cluster_probe_rtt_seconds`` — round-trip of one probe
      attempt, labeled by ``result`` (``ack`` direct, ``indirect``
      proxy-confirmed, ``failed``);
    * ``repro_cluster_transitions_total`` — member state transitions by
      target ``state`` (``suspect``/``dead`` are the detector firing);
    * ``repro_cluster_refutations_total`` — incarnation bumps answering
      a false suspicion;
    * ``repro_cluster_ring_epoch`` — the ring epoch this member serves
      at, pulled at scrape time (:meth:`bind_epoch`) — the gauge a
      converged cluster agrees on;
    * ``repro_cluster_gossip_bytes`` — agent-link octets by
      ``direction``, pulled at scrape time (:meth:`bind_gossip`);
    * ``repro_cluster_failovers_total`` plus the two latency gauges —
      ``time_to_detect`` (crash → dead transition, set by harnesses
      that know the crash instant) and ``time_to_recover`` (crash →
      new epoch serving; detection is what
      ``3·probe_period + suspect_timeout`` bounds).
    """

    def __init__(self, registry: Registry, member: Any = 0) -> None:
        self.registry = registry
        label = {"member": str(member)}
        probe_family = registry.histogram(
            "repro_cluster_probe_rtt_seconds",
            "Round-trip of one probe attempt (direct or via proxies)",
            labels=("member", "result"),
            buckets=exponential_buckets(start=0.0001, count=16),
        )
        self._probe_rtt = {
            result: probe_family.labels(member=str(member), result=result)
            for result in ("ack", "indirect", "failed")
        }
        transitions = registry.counter(
            "repro_cluster_transitions_total",
            "Member state transitions observed, by resulting state",
            labels=("member", "state"),
        )
        self._transitions = {
            state: transitions.labels(member=str(member), state=state)
            for state in ("alive", "suspect", "dead", "left")
        }
        self.refutations = registry.counter(
            "repro_cluster_refutations_total",
            "Incarnation bumps refuting a false suspicion of this member",
            labels=("member",),
        ).labels(**label)
        self._epoch = registry.gauge(
            "repro_cluster_ring_epoch",
            "Ring epoch this member currently serves at",
            labels=("member",),
        ).labels(**label)
        # Gauges bound to pull functions: the monotone totals live in
        # the agent links' FrameConnections; scraping reads them.
        gossip = registry.gauge(
            "repro_cluster_gossip_bytes",
            "Octets over this member's agent links, by direction",
            labels=("member", "direction"),
        )
        self._gossip_sent = gossip.labels(member=str(member), direction="sent")
        self._gossip_received = gossip.labels(
            member=str(member), direction="received"
        )
        self.failovers = registry.counter(
            "repro_cluster_failovers_total",
            "Failover/join plans executed by this member as coordinator",
            labels=("member",),
        ).labels(**label)
        self._time_to_detect = registry.gauge(
            "repro_cluster_time_to_detect_seconds",
            "Crash-to-dead-transition latency of the last detected death",
            labels=("member",),
        ).labels(**label)
        self._time_to_recover = registry.gauge(
            "repro_cluster_time_to_recover_seconds",
            "Crash-to-new-epoch latency of the last completed failover",
            labels=("member",),
        ).labels(**label)

    def on_probe(self, rtt: float, result: str) -> None:
        self._probe_rtt.get(result, self._probe_rtt["failed"]).observe(
            max(rtt, 0.0)
        )

    def on_transition(self, state: str) -> None:
        counter = self._transitions.get(state)
        if counter is not None:
            counter.inc()

    def on_refutation(self) -> None:
        self.refutations.inc()

    def on_failover(self, seconds: float) -> None:
        self.failovers.inc()

    def bind_epoch(self, fn) -> None:
        self._epoch.set_function(fn)

    def bind_gossip(self, sent_fn, received_fn) -> None:
        self._gossip_sent.set_function(sent_fn)
        self._gossip_received.set_function(received_fn)

    def set_time_to_detect(self, seconds: float) -> None:
        self._time_to_detect.set(max(seconds, 0.0))

    def set_time_to_recover(self, seconds: float) -> None:
        self._time_to_recover.set(max(seconds, 0.0))


class TimedInstruments:
    """The bundle a live stack wires into its read/write completions.

    One ``on_read``/``on_write`` call per completed operation feeds the
    on-time judgement, the visibility-lag histogram (violations tied to
    the read judgement, not raw age), and the event-trace ring.
    ``epsilon`` may be assigned after construction — clock-sync error
    bounds are only known once the transport handshakes finish.
    """

    def __init__(
        self,
        registry: Registry,
        delta: float,
        epsilon: float = 0.0,
        *,
        window: int = DEFAULT_WINDOW,
        initial_value: Any = 0,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self.registry = registry
        self.visibility = VisibilityLag(registry, delta, epsilon)
        self.ontime = OnTimeRatio(
            registry, delta, epsilon,
            window=window, initial_value=initial_value,
        )
        self.trace = EventTrace(
            trace_capacity, registry=registry, initial_value=initial_value,
        )

    @property
    def epsilon(self) -> float:
        return self.ontime.epsilon

    @epsilon.setter
    def epsilon(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"epsilon must be non-negative, got {value}")
        self.ontime.epsilon = value
        self.visibility.epsilon = value

    @property
    def delta(self) -> float:
        return self.ontime.delta

    def on_write(
        self,
        site: int,
        obj: str,
        value: Any,
        time: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> None:
        self.ontime.observe_write(obj, value, time)
        self.trace.record_write(site, obj, value, time, start=start, end=end)

    def on_read(
        self,
        site: int,
        obj: str,
        value: Any,
        time: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> OnTimeVerdict:
        verdict = self.ontime.observe_read(obj, value, time)
        if verdict.lag is not None:
            self.visibility.observe(
                verdict.lag, violated=verdict.on_time is False
            )
        elif verdict.on_time is False:
            self.visibility.violations.inc()
        self.trace.record_read(site, obj, value, time, start=start, end=end)
        return verdict

    def summary(self) -> Dict[str, Any]:
        """A flat dict for reports and CLI tables."""
        counts = self.ontime.counts
        return {
            "delta": self.delta,
            "epsilon": self.epsilon,
            "reads_on_time": counts["on_time"],
            "reads_late": counts["late"],
            "reads_unjudged": counts["unjudged"],
            "writes": counts["writes"],
            "ontime_ratio": self.ontime.ratio,
            "required_delta": self.ontime.required_delta,
            "lag_p50": self.visibility.histogram._default.quantile(0.5),
            "lag_p99": self.visibility.histogram._default.quantile(0.99),
            "violations": int(self.visibility.violations.value),
            "trace_events": len(self.trace),
            "trace_dropped": self.trace.dropped,
        }
