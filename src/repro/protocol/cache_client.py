"""Cache clients implementing the lifetime consistency protocols.

:func:`TimedCacheClient` runs the physical-clock protocol of
Sections 5.1-5.2: rules 1-2 give sequential consistency, and rule 3 —
``Context_i := max(t_i - delta, Context_i)`` — upgrades it to TSC(delta).
``delta = math.inf`` disables rule 3 and yields the plain SC protocol;
``delta = 0`` makes every access revalidate (local caches become useless,
the LIN end of Figure 4b).

:func:`CausalCacheClient` runs the logical-clock protocol of
Section 5.3: lifetimes and ``Context_i`` are vector timestamps, and the
TCC upgrade adds the *checking time* ``beta`` — a version whose ``beta``
is older than ``t_i - delta`` must be revalidated before use.

The protocol rules live in the transport-free cache engines of
:mod:`repro.engine.cache`; both names construct the one *simulator
driver*, :class:`SimCacheClient`, over the matching engine.  The driver
owns request ids, retransmission, pending-operation events and the trace
recorder: it sends the frame an engine operation hands it and feeds the
reply frame back.  The TCP client
(:class:`repro.net.client.NetCacheClient`) drives the same
:class:`~repro.engine.CacheEngine` the same way.

Design notes (see DESIGN.md):

* **Writes are synchronous**: a write completes when the object's server
  acknowledges installation.  This guarantees (a) a site's writes reach
  the server in program order, and (b) any write in a client's causal past
  is installed before anything causally after it executes.  Consequence:
  a version fetched from an object's (single, authoritative) server is
  never older than any write to that object in the client's causal past,
  so a fetched version may always be accepted; when the server-reported
  ending time is behind ``Context_i`` (the cross-server case the paper
  handles by "contacting other servers"), we advance the ending time to
  ``Context_i`` by this argument and count it in
  ``stats.fetch_check_failures``.
* **Invalidate vs mark-old**: the Context rules can either drop a stale
  entry (next access pays a full fetch) or mark it *old* (next access pays
  an if-modified-since validation, Section 5.2's optimization).  The
  ``staleness_action`` knob selects the policy; the ablation bench
  measures the traffic difference.
* Reads complete either immediately (fresh cache hit) or after a
  fetch/validate round trip; the *effective time* recorded in the trace is
  the ground-truth simulation time at completion, and a write's effective
  time is the instant the server installed it — both inside the
  operation's execution interval, as Section 2 requires.
* Writes go to the wire as ``{"obj", "value", "req"}`` scalars (the
  server stamps the install time; a client-side stamp would be
  discarded anyway), matching the TCP wire format.  ``write_many``
  ships several writes in one ``WRITE_BATCH`` frame — the sim stack
  shares the TCP stack's batching now that both drive the same engine.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.engine import CacheEngine, CausalCacheEngine, StalenessAction, messages
from repro.engine.versions import CacheEntry
from repro.protocol.server import ObjectDirectory
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder


class _Pending(NamedTuple):
    """A request awaiting its reply: the engine operation(s) it carries,
    the caller's event, how to complete it, and how to re-send it."""

    op: Any
    event: Event
    finish: Callable
    resend: Callable


class SimCacheClient(Node):
    """A lifetime cache on the simulator — the driver over whichever
    cache engine it is handed (``stats`` is the engine's).

    Request retransmission for lossy networks: when ``retry_timeout`` is
    set, every outstanding request re-sends itself until a reply
    arrives.  The same request id is reused, and the server's
    exactly-once reply cache turns the duplicate into a replay of the
    original reply (same ``alpha``), so a retransmitted write is never
    installed twice — even with several writes outstanding, where the
    old one-deep per-client memo failed.  A duplicate *reply* simply
    finds no pending entry and is ignored.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        directory: ObjectDirectory,
        engine: Any,
        recorder: Optional[TraceRecorder] = None,
        clock=None,
        retry_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(node_id, sim, network, clock)
        if retry_timeout is not None and retry_timeout <= 0:
            raise ValueError(f"retry_timeout must be positive, got {retry_timeout}")
        self.directory = directory
        self.recorder = recorder
        self.retry_timeout = retry_timeout
        self.engine = engine
        self.stats = engine.stats
        self._requests = itertools.count()
        self._pending: Dict[int, _Pending] = {}

    # -- engine state, readable through the driver -------------------------------

    @property
    def cache(self) -> Dict[str, CacheEntry]:
        return self.engine.cache

    @property
    def context(self):
        return self.engine.context

    @property
    def vclock(self):
        return self.engine.vclock

    @property
    def delta(self) -> float:
        return self.engine.delta

    def delta_for(self, obj: str) -> float:
        """The freshness bound in force for ``obj``."""
        return self.engine.delta_for(obj)

    def usable_snapshot(self) -> Dict[str, Any]:
        """The versions this cache would serve right now, per object."""
        return self.engine.usable_snapshot(self.local_time())

    def snapshot_mutually_consistent(self) -> bool:
        """Section 5.1's cache-consistency invariant (see the engines'
        ``snapshot_mutually_consistent``)."""
        return self.engine.snapshot_mutually_consistent(self.local_time())

    # -- public operation API ----------------------------------------------

    def read(self, obj: str) -> Event:
        """Start a read; the returned event succeeds with the value."""
        op = self.engine.begin_read(obj, self.local_time(), self.sim.now)
        if op.hit:
            event = self.sim.event()
            self._record_read(obj, op.value, self.sim.now)
            event.succeed(op.value)
            return event
        return self._issue(obj, op.frame, op, self._finish_read)

    def write(self, obj: str, value: Any) -> Event:
        """Start a write; the returned event succeeds when the server
        acks (with the install time on the physical protocol)."""
        op = self.engine.begin_write(obj, value, self.local_time(), self.sim.now)
        return self._issue(obj, op.frame, op, self._finish_write)

    def write_many(self, writes: List[Tuple[str, Any]]) -> Event:
        """Start a batch of writes as one ``WRITE_BATCH`` frame; the
        returned event succeeds with the list of install times
        (physical protocol only).

        One frame, one server visit, per-item acks.  Caveat: the
        simulator's clocks only advance between events, so every item in
        the batch gets the *same* install stamp — batch distinct objects
        (a same-object duplicate inside one frame loses the
        latest-write-wins race).
        """
        if not writes:
            raise ValueError("write_many needs at least one write")
        ops = [
            self.engine.begin_write(obj, value, self.local_time(), self.sim.now)
            for obj, value in writes
        ]
        # Single-server sim: any object routes the frame.
        return self._issue(
            writes[0][0], self.engine.write_batch_frame(ops), ops, self._finish_batch
        )

    # -- message handling ----------------------------------------------------

    def _issue(self, obj: str, frame: Dict[str, Any], op: Any, finish: Callable) -> Event:
        """Send ``frame`` under a fresh request id and park ``op`` until
        the reply with that id arrives."""
        event = self.sim.event()
        req = frame["req"] = next(self._requests)
        kind, dst = frame["kind"], self.directory.server_for(obj)
        resend = lambda: self.send(dst, kind, frame, size=messages.size_of(kind))
        self._pending[req] = _Pending(op, event, finish, resend)
        resend()
        if self.retry_timeout is not None:
            self.sim.schedule(self.retry_timeout, self._maybe_retry, req)
        return event

    def _maybe_retry(self, req: int) -> None:
        pending = self._pending.get(req)
        if pending is None:
            return
        self.stats.retries += 1
        pending.resend()
        self.sim.schedule(self.retry_timeout, self._maybe_retry, req)

    def on_message(self, message: Message) -> None:
        frame = message.payload
        req = frame.get("req")
        if req is None:
            self.engine.on_server_frame(frame, self.sim.now)
            return
        pending = self._pending.pop(req, None)
        if pending is not None:  # else: a duplicate of an answered request
            pending.event.succeed(pending.finish(pending.op, frame))

    def _finish_read(self, op: Any, reply: Dict[str, Any]) -> Any:
        value = self.engine.finish_read(op, reply, self.sim.now)
        self._record_read(op.obj, value, op.started)
        return value

    def _finish_write(self, op: Any, reply: Dict[str, Any]) -> Any:
        result = self.engine.finish_write(op, reply, self.sim.now)
        self._record_write(op, reply["true_time"])
        return result

    def _finish_batch(self, ops: List[Any], reply: Dict[str, Any]) -> List[float]:
        alphas = self.engine.finish_write_batch(ops, reply, self.sim.now)
        for op in ops:
            self._record_write(op, reply["true_time"])
        return alphas

    # -- tracing ----------------------------------------------------------------
    #
    # The *effective time* recorded is ground truth: a read's is the
    # simulation time at completion, a write's the instant the server
    # installed it — both inside the operation's execution interval.

    def _record_read(self, obj: str, value: Any, start: float) -> None:
        if self.recorder is not None:
            self.recorder.record_read(
                self.node_id, obj, value, self.sim.now,
                ltime=self.engine.logical_time(), start=start, end=self.sim.now,
            )

    def _record_write(self, op: Any, true_time: float) -> None:
        if self.recorder is not None:
            self.recorder.record_write(
                self.node_id, op.obj, op.value, true_time,
                ltime=op.ltime, start=op.started, end=self.sim.now,
            )


def TimedCacheClient(
    node_id: int,
    sim: Simulator,
    network: Network,
    directory: ObjectDirectory,
    delta: float = math.inf,
    staleness_action: StalenessAction = StalenessAction.MARK_OLD,
    recorder: Optional[TraceRecorder] = None,
    clock=None,
    retry_timeout: Optional[float] = None,
    delta_overrides: Optional[Dict[str, float]] = None,
) -> SimCacheClient:
    """Physical-clock lifetime cache: SC when ``delta`` is infinite,
    TSC(delta) otherwise — a :class:`SimCacheClient` over
    :class:`repro.engine.CacheEngine`.

    ``delta_overrides`` maps object names to per-object freshness
    bounds — the S-DSO idea of West et al. [41] that the paper's
    Section 4 cites: applications specify *which* objects must be seen
    how quickly.  An override tighter than ``delta`` forces earlier
    revalidation of that object only; looser overrides relax it.
    """
    engine = CacheEngine(
        site_id=node_id, delta=delta, staleness_action=staleness_action,
        delta_overrides=delta_overrides,
    )
    return SimCacheClient(
        node_id, sim, network, directory, engine, recorder, clock, retry_timeout
    )


def CausalCacheClient(
    node_id: int,
    sim: Simulator,
    network: Network,
    directory: ObjectDirectory,
    slot: int,
    vector_width: int,
    delta: float = math.inf,
    staleness_action: StalenessAction = StalenessAction.MARK_OLD,
    recorder: Optional[TraceRecorder] = None,
    clock=None,
    lclock=None,
    zero_timestamp=None,
    retry_timeout: Optional[float] = None,
    delta_overrides: Optional[Dict[str, float]] = None,
) -> SimCacheClient:
    """Vector-clock lifetime cache: CC when ``delta`` is infinite,
    TCC(delta) otherwise (via the checking time ``beta``) — a
    :class:`SimCacheClient` over :class:`repro.engine.CausalCacheEngine`.

    ``lclock``/``zero_timestamp`` override the default exact vector
    clock, e.g. with a constant-size plausible clock
    (:class:`repro.clocks.plausible.REVClock`).  Plausible timestamps
    keep the protocol *safe in the causal direction they report*, but
    their folding can hide a genuine supersession, so causal
    consistency becomes approximate; the bench suite measures the
    violation rate as a function of clock precision.

    ``delta_overrides`` gives per-object freshness bounds (the S-DSO
    idea [41]); see :func:`TimedCacheClient`.
    """
    engine = CausalCacheEngine(
        site_id=node_id,
        vclock=lclock if lclock is not None else VectorClock(slot, vector_width),
        zero_timestamp=(
            zero_timestamp
            if zero_timestamp is not None
            else VectorTimestamp.zero(vector_width)
        ),
        delta=delta, staleness_action=staleness_action,
        delta_overrides=delta_overrides,
    )
    return SimCacheClient(
        node_id, sim, network, directory, engine, recorder, clock, retry_timeout
    )
