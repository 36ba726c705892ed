"""Timed-consistency instruments on top of the metrics core.

The paper's Section 6 evaluates the lifetime protocol by the fraction of
operations that execute *on time*; the offline checkers establish that
number after the fact, from the run's one operation record (the
:class:`~repro.sim.trace.TraceRecorder` history).  These instruments
judge the same quantity online, with bounded memory, so a live stack
(TCP servers, ring routers, the load generator) can export it from
``/metrics`` continuously.  They keep no copy of the operations:

* :class:`VisibilityLag` — the observed age of served/propagated
  versions (``now - T(w)``), as a histogram against the freshness bound
  ``delta``, with a violation counter;
* :class:`OnTimeRatio` — the Definition 1/2 on-time read fraction,
  judged per read by :func:`repro.core.timed.required_delta` from a
  bounded per-object window of recent writes (the online sibling of
  :func:`repro.core.timed.late_reads`, trading unbounded write memory
  for an explicit *unjudged* bucket — see docs/OBSERVABILITY.md for the
  window-tolerance semantics);
* :class:`TimedInstruments` — the judge the live stack wires in: one
  call per completed read/write feeds both, and a read that arrives
  before its writer waits for it.

:class:`StoreInstruments`, :class:`PipelineInstruments` and
:class:`ClusterInstruments` export the store, the request pipeline and
the failure detector.  Each pushes only what exists only at the event
(latencies, transitions, the snapshot count) and reads every count its
component already keeps at scrape time.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.timed import required_delta
from repro.obs.metrics import Registry, exponential_buckets, family

#: Default per-object recent-write window of :class:`OnTimeRatio`.
DEFAULT_WINDOW = 64


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
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.delta = delta
        self.epsilon = epsilon
        self.histogram = registry.histogram(
            "repro_visibility_lag_seconds",
            "Age of the observed version at observation time (seconds)",
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

    (Definition 2's comparison; ``epsilon = 0`` gives Definition 1),
    decided by the offline judge's own rule,
    :func:`repro.core.timed.required_delta`.  The offline judge sees every
    write; this instrument keeps the last ``window`` writes per object.
    When the writer is still in the window the judgement is *exact*.  When it is not, a retained write
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
        writer_time = next(
            (t for t, v in reversed(writes) if v == value), None
        )
        # The writer is known when retained, or when the read returns the
        # pre-history value and nothing has been evicted.  An evicted
        # writer is older than every retained write, so judging against
        # all of them can still prove the read late, never on time.
        known = writer_time is not None or (
            value == self.initial_value
            and (window is None or window.evicted == 0)
        )
        t_w = -math.inf if writer_time is None else writer_time
        required = required_delta(
            time, t_w, (t for t, _ in writes), self.epsilon
        )
        lag = None if writer_time is None else time - writer_time
        if required > self.delta:
            verdict = OnTimeVerdict(False, lag, required)
            self._late.inc()
        elif known:
            verdict = OnTimeVerdict(True, lag, required)
            self._on_time.inc()
        else:
            verdict = OnTimeVerdict(None, None, 0.0)
            self._unjudged.inc()
        self.required_delta = max(self.required_delta, verdict.required_delta)
        return verdict

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


class StoreInstruments:
    """WAL / snapshot / recovery metrics for one :mod:`repro.store`
    durable store (``durable``, a
    :class:`~repro.store.recovery.DurableStore`).

    Families carry a ``store`` label so several stores (one per ring
    device, say) can share a registry.  Two numbers exist only at their
    event and are pushed: the fsync latency histogram, fed by the WAL's
    ``on_fsync`` hook, and the snapshot count.  Everything else is a
    count the store's parts already keep, read at scrape time: the
    log's ``records_appended``/``bytes_appended``, the store's
    ``recovered`` state and snapshot age, and the serving engine's
    ``revalidations``.
    """

    def __init__(
        self, registry: Registry, durable: Any, store: Any = "server"
    ) -> None:
        label = {"store": str(store)}
        self.fsync_seconds = registry.histogram(
            "repro_store_fsync_seconds",
            "Duration of WAL fsync calls (seconds)",
            labels=("store",),
            buckets=exponential_buckets(start=0.00001, count=16),
        ).labels(**label)
        self.snapshots = registry.counter(
            "repro_store_snapshots_total",
            "Compacted snapshots written",
            labels=("store",),
        ).labels(**label)
        registry.gauge(
            "repro_store_snapshot_age_seconds",
            "Wall seconds since the last snapshot (+inf when none)",
            labels=("store",),
        ).labels(**label).set_function(lambda: durable.snapshot_age)
        #: The log the store opened (kept past its close, so a final
        #: snapshot still reads its counts) and the engine serving from
        #: the store; their owners set them.
        self.wal: Optional[Any] = None
        self.engine: Optional[Any] = None
        registry.register_collector(lambda: self._collect(durable, label))

    def _collect(
        self, durable: Any, label: Dict[str, str]
    ) -> List[Dict[str, Any]]:
        wal, recovered, engine = self.wal, durable.recovered, self.engine
        opened = recovered is not None
        counts = (
            ("wal_records", "Records appended to the write-ahead log",
             wal.records_appended if wal is not None else 0),
            ("wal_bytes", "Bytes appended to the write-ahead log",
             wal.bytes_appended if wal is not None else 0),
            ("recoveries", "Recovery (open) events", int(opened)),
            ("recovery_seconds", "Wall time spent in recovery",
             recovered.recovery_seconds if opened else 0.0),
            ("replayed_records", "WAL records replayed during recoveries",
             recovered.replayed_records if opened else 0),
            ("quarantined_bytes",
             "Corrupt WAL-tail bytes quarantined during recoveries",
             recovered.quarantined_bytes if opened else 0),
            ("old_marked",
             "Versions marked old at recovery (checking time < t - delta)",
             len(recovered.old_objects) if opened else 0),
            ("revalidations",
             "Recovered-old versions re-proved current on first touch",
             engine.revalidations if engine is not None else 0),
        )
        return [
            family(f"repro_store_{name}_total", "counter", help, [(label, value)])
            for name, help, value in counts
        ]

    def on_fsync(self, seconds: float) -> None:
        self.fsync_seconds.observe(seconds)

    def on_snapshot(self) -> None:
        self.snapshots.inc()


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
    * the two latency gauges — ``time_to_detect`` (crash → dead
      transition, set by harnesses that know the crash instant) and
      ``time_to_recover`` (crash → new epoch serving; detection is what
      ``3·probe_period + suspect_timeout`` bounds).

    Once the agent calls :meth:`bind`, its own counts are read at scrape
    time: ``repro_cluster_ring_epoch`` (the gauge a converged cluster
    agrees on), ``repro_cluster_gossip_bytes`` (agent-link octets by
    ``direction``) and ``repro_cluster_{refutations,failovers}_total``
    (incarnation bumps answering a false suspicion; failover/join plans
    run as coordinator).
    """

    def __init__(self, registry: Registry, member: Any = 0) -> None:
        self.registry = registry
        self._label = label = {"member": str(member)}
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
        self._epoch = registry.gauge(
            "repro_cluster_ring_epoch",
            "Ring epoch this member currently serves at",
            labels=("member",),
        ).labels(**label)
        gossip = registry.gauge(
            "repro_cluster_gossip_bytes",
            "Octets over this member's agent links, by direction",
            labels=("member", "direction"),
        )
        self._gossip_sent = gossip.labels(member=str(member), direction="sent")
        self._gossip_received = gossip.labels(
            member=str(member), direction="received"
        )
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

    def bind(self, agent: Any) -> None:
        """Read ``agent``'s (a :class:`~repro.cluster.swim.SwimAgent`)
        epoch, link octet totals and counts at scrape time."""
        label = self._label

        def links() -> List[Any]:
            return [l.conn for l in agent.links.values() if l.conn is not None]

        self._epoch.set_function(lambda: agent.server.engine.epoch)
        self._gossip_sent.set_function(
            lambda: sum(conn.bytes_sent for conn in links()))
        self._gossip_received.set_function(
            lambda: sum(conn.bytes_received for conn in links()))
        self.registry.register_collector(lambda: [
            family("repro_cluster_refutations_total", "counter",
                   "Incarnation bumps refuting a false suspicion of this member",
                   [(label, agent.refutations)]),
            family("repro_cluster_failovers_total", "counter",
                   "Failover/join plans executed by this member as coordinator",
                   [(label, agent.failovers)]),
        ])

    def set_time_to_detect(self, seconds: float) -> None:
        self._time_to_detect.set(max(seconds, 0.0))

    def set_time_to_recover(self, seconds: float) -> None:
        self._time_to_recover.set(max(seconds, 0.0))


class TimedInstruments:
    """The judge a live stack wires into its read/write completions.

    One ``on_read``/``on_write`` call per completed operation feeds the
    on-time judgement and the visibility-lag histogram (violations tied
    to the read judgement, not raw age).  The operations themselves are
    recorded once, by the run's :class:`~repro.sim.trace.TraceRecorder`;
    the judge keeps only its bounded windows.  ``epsilon`` may be
    assigned after construction — clock-sync error bounds are only
    known once the transport handshakes finish.

    Operations arrive in completion order, so a read can arrive before
    the write it returns: that writer may still be collecting replica
    acks, or may never be recorded at all (an ack that raced a crash).
    Such a read **waits for its writer** and is judged, at its own time,
    when the write arrives; one whose writer never arrives is never
    judged, as the offline merge drops it.  Telling a writer not yet
    seen from one evicted from the window takes one set entry per write.
    """

    def __init__(
        self, registry: Registry, delta: float, epsilon: float = 0.0
    ) -> None:
        self.registry = registry
        self.visibility = VisibilityLag(registry, delta, epsilon)
        self.ontime = OnTimeRatio(registry, delta, epsilon)
        #: Every (object, value) written so far, and the times of the
        #: reads still waiting for theirs.
        self._written: Set[Tuple[str, Any]] = set()
        self._waiting: Dict[Tuple[str, Any], List[float]] = {}

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

    def on_write(self, obj: str, value: Any, time: float) -> None:
        self.ontime.observe_write(obj, value, time)
        self._written.add((obj, value))
        for read_time in self._waiting.pop((obj, value), ()):
            self._judge(obj, value, read_time)

    def on_op(self, op: Any) -> None:
        """Feed one recorded :class:`~repro.core.operations.Operation` to
        :meth:`on_write` or :meth:`on_read` — the listener a live stack
        adds to its recorder."""
        feed = self.on_write if op.is_write else self.on_read
        feed(op.obj, op.value, op.time)

    def on_read(
        self, obj: str, value: Any, time: float
    ) -> Optional[OnTimeVerdict]:
        """Judge one read at ``time``; ``None`` while it waits for its
        writer, and the read is judged when that write arrives."""
        key = (obj, value)
        if key not in self._written and value != self.ontime.initial_value:
            self._waiting.setdefault(key, []).append(time)
            return None
        return self._judge(obj, value, time)

    def _judge(self, obj: str, value: Any, time: float) -> OnTimeVerdict:
        verdict = self.ontime.observe_read(obj, value, time)
        if verdict.lag is not None:
            self.visibility.observe(
                verdict.lag, violated=verdict.on_time is False
            )
        elif verdict.on_time is False:
            self.visibility.violations.inc()
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
        }
