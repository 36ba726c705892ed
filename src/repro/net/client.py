"""The TCP cache client: the lifetime rules of Sections 5.1-5.2, live.

:class:`NetCacheClient` is the transport twin of the simulator's
``TimedCacheClient``: both drive the same
:class:`repro.engine.CacheEngine` — the cache
structure (versions with lifetimes, ``Context_i``, *old* entries) and
every freshness judgement live there, read as ``client.engine.cache``,
``.context``, ``.delta``; the connection, request ids and reply
matching are a :class:`repro.net.channel.Channel`; this class owns the
synchronized clock, retransmission, and trace recording.

Two freshness modes:

* ``"pull"`` — rule 3 (``Context_i := max(t_i - delta, Context_i)``)
  enforced against the *synchronized* clock; a cached entry whose ending
  time fell behind is revalidated before use.  TSC(delta) holds by the
  protocol's own doing, whatever the network does (losses are repaired
  by retransmission).
* ``"push"`` — the client subscribes to server pushes and trusts them
  for freshness: cached entries are served without a delta check, on the
  assumption that any newer version reaches it within delta.  That
  assumption is exactly what fault injection can break — a push delayed
  beyond delta produces reads the checkers flag as late (the paper's
  observation that delta-causality fails when "late messages are never
  delivered"; cf. ``bench_push_vs_pull``).

Requests carry a request id; the client retransmits after a timeout with
exponential backoff, reusing the id so duplicate replies are recognized
and dropped.  The server answers every request or closes the connection
(``error`` for one it cannot serve), so a timeout is the only reason to
ask again.  Fault injection (:mod:`repro.net.faults`) attaches to the
client's outbound frames *after* the handshake, so connect/sync always
complete and the workload exercises the faults.

Reads and writes are teed into a :class:`~repro.sim.trace.TraceRecorder`:
reads at the synchronized-clock reading at completion, writes at the
server-reported install time, so a merged multi-client trace lives on the
server's timescale and can be checked offline with
``epsilon = max(client.epsilon_bound)``.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.engine import CacheEngine, messages
from repro.net.channel import Channel
from repro.net.clocksync import SyncedClock
from repro.net.faults import FaultInjector
from repro.net.framing import (
    ERROR,
    RING_FETCH,
    RING_STATE,
    SYNC,
    SYNC_ACK,
    FrameConnection,
    FrameError,
)
from repro.sim.trace import TraceRecorder

FRESHNESS_MODES = ("pull", "push")


class NetError(Exception):
    """Base class for client-side transport failures."""


class RequestTimeout(NetError):
    """No reply after all retransmissions — server down or partitioned."""


class ProtocolError(NetError):
    """The server answered with an error frame or nonsense."""


class NetCacheClient:
    """A timed lifetime cache speaking the framed TCP protocol."""

    def __init__(
        self,
        client_id: int,
        host: str,
        port: int,
        *,
        delta: float = math.inf,
        mode: str = "pull",
        recorder: Optional[TraceRecorder] = None,
        skew: float = 0.0,
        faults: Optional[FaultInjector] = None,
        sync_rounds: int = 5,
        sync_retries: int = 3,
        request_timeout: float = 0.5,
        max_retries: int = 4,
        backoff: float = 2.0,
        clock: Optional[SyncedClock] = None,
        registry: Optional[Any] = None,
        metric_labels: Optional[Dict[str, Any]] = None,
        pipeline_depth: int = 8,
    ) -> None:
        """``sync_retries`` bounds how often a failed connect/clock-sync
        handshake is redone (fresh connection, capped exponential backoff
        — the :class:`~repro.net.faults` ``_RetryMixin`` pattern at the
        handshake layer) before a clean :class:`NetError` surfaces.

        ``clock`` substitutes a caller-owned :class:`SyncedClock` — the
        :class:`~repro.net.ring_router.RingRouter` passes per-device
        clocks sharing one local timescale so cross-server offsets
        compose (docs/RING.md).

        ``registry`` (a :class:`repro.obs.metrics.Registry`) turns on
        client-side telemetry: the :class:`ClientStats` struct binds as a
        pull collector, request RTTs land in
        ``repro_net_request_rtt_seconds{kind}``, server pushes in
        ``repro_net_push_lag_seconds`` (observed propagation delay
        ``now - alpha`` — the quantity delta bounds), and the NTP
        estimator's offset/error export as gauges.  ``metric_labels``
        adds constant labels (e.g. ``device=<id>``) next to the implicit
        ``site=<client_id>``.

        ``pipeline_depth`` bounds how many requests may be outstanding
        over the one connection at a time (a semaphore; depth 1 is the
        old lockstep behaviour)."""
        if mode not in FRESHNESS_MODES:
            raise ValueError(f"mode must be one of {FRESHNESS_MODES}, got {mode!r}")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if sync_retries < 0:
            raise ValueError(f"sync_retries must be non-negative, got {sync_retries}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.client_id = client_id
        self.host = host
        self.port = port
        self.mode = mode
        self.recorder = recorder
        self.sync_rounds = sync_rounds
        self.sync_retries = sync_retries
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.clock = clock if clock is not None else SyncedClock(skew=skew)
        self.engine = CacheEngine(site_id=client_id, delta=delta)
        self.stats = self.engine.stats
        self.channel = Channel(
            client_id, host, port,
            subscribe=mode == "push", faults=faults, on_frame=self._on_frame,
        )
        # Cluster awareness: the highest ring epoch any server frame has
        # carried (0 for a standalone server) and a subscriber called on
        # each advance.
        self.server_epoch = 0
        self.on_epoch: Optional[Callable[[int, "NetCacheClient"], None]] = None
        self.pipeline_depth = pipeline_depth
        # Pipelining: the semaphore bounds outstanding request ids over
        # the one connection; ids themselves are never reused, so a
        # reply that outlives its request cannot resolve a later future.
        self._issue_slots = asyncio.Semaphore(pipeline_depth)
        self.registry = registry
        self._rtt = None
        self._push_lag = None
        self._clock_collector = None
        self.pipeline = None
        if registry is not None:
            self._bind_metrics(metric_labels or {})

    def _bind_metrics(self, extra: Dict[str, Any]) -> None:
        from repro.obs.bridge import bind_client_stats
        from repro.obs.metrics import family

        labels = {"site": str(self.client_id)}
        labels.update({k: str(v) for k, v in extra.items()})
        bind_client_stats(self.registry, self.stats, **labels)
        rtt = self.registry.histogram(
            "repro_net_request_rtt_seconds",
            "Request round-trip time as seen by the cache client",
            labels=tuple(labels) + ("kind",),
        )
        # Pre-bound children: the request path does one dict lookup.
        self._rtt = {
            kind: rtt.labels(**labels, kind=kind)
            for kind in (
                messages.FETCH, messages.VALIDATE, messages.WRITE,
                messages.VALIDATE_BATCH, SYNC,
            )
        }
        self._push_lag = self.registry.histogram(
            "repro_net_push_lag_seconds",
            "Propagation delay of server pushes (receipt time - alpha); "
            "the quantity TSC's delta bounds",
            labels=tuple(labels),
        ).labels(**labels)

        def clock_collector():
            est = self.clock.estimator
            return [
                family("repro_net_clock_error_seconds", "gauge",
                       "NTP estimator error bound (epsilon contribution)",
                       [(labels, est.error_bound)]),
                family("repro_net_clock_offset_seconds", "gauge",
                       "Estimated offset to the server clock",
                       [(labels, est.offset)]),
            ]

        self._clock_collector = self.registry.register_collector(clock_collector)

        from repro.obs.instruments import PipelineInstruments

        self.pipeline = PipelineInstruments(
            self.registry, side="client", labels=labels
        )
        self.pipeline.bind_outstanding(lambda: len(self.channel.pending))

    # -- connection lifecycle -------------------------------------------------

    @property
    def conn(self) -> Optional[FrameConnection]:
        return self.channel.conn

    async def connect(self) -> "NetCacheClient":
        """Connect and synchronize; one bad handshake round is not fatal.

        A server that closes mid-sync (restart, accept-queue overflow) is
        retried on a fresh connection with capped exponential backoff;
        only after ``sync_retries + 1`` failed handshakes does a clean
        :class:`NetError` surface.
        """
        wait = 0.05
        for attempt in range(self.sync_retries + 1):
            try:
                self._note_epoch(await self.channel.open())
                await self._sync_clock(self.sync_rounds)
                break
            except (ConnectionError, FrameError) as exc:
                await self.channel.close(bye=False)
                if attempt == self.sync_retries:
                    raise NetError(
                        f"clock-sync handshake failed after {attempt + 1} "
                        f"attempts: {exc}"
                    ) from exc
                await asyncio.sleep(wait)
                wait = min(wait * self.backoff, 1.0)
        # Faults attach only now: the handshake always completes, the
        # workload runs over the unreliable link.
        self.channel.start()
        return self

    async def _sync_clock(self, rounds: int) -> None:
        conn = self.channel.conn
        for _ in range(rounds):
            t0 = self.clock.local()
            await conn.send({"kind": SYNC, "t0": t0})
            reply = await conn.recv()
            t3 = self.clock.local()
            if reply is None:
                raise ConnectionError("server closed during clock sync")
            if reply.get("kind") != SYNC_ACK:
                raise ProtocolError(f"bad sync reply: {reply!r}")
            self.clock.estimator.add_sample(reply["t0"], reply["t1"], reply["t2"], t3)

    async def resync(self, rounds: Optional[int] = None) -> None:
        """Run additional sync exchanges over the live connection."""
        for _ in range(rounds if rounds is not None else self.sync_rounds):
            reply = await self._request({"kind": SYNC, "t0": self.clock.local()})
            t3 = self.clock.local()
            self.clock.estimator.add_sample(reply["t0"], reply["t1"], reply["t2"], t3)

    async def close(self) -> None:
        await self.channel.close()

    async def __aenter__(self) -> "NetCacheClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- clocks ---------------------------------------------------------------

    def now(self) -> float:
        """The approximately synchronized clock ``t_i`` (server timescale)."""
        return self.clock.now()

    @property
    def epsilon_bound(self) -> float:
        """This client's contribution to Definition 2's ``epsilon``."""
        return self.clock.epsilon_bound

    def _rule_clock(self, now: float) -> Optional[float]:
        """The protocol clock handed to the engine: pull mode enforces
        delta against the synchronized clock (rule 3); push mode hands
        ``None`` — untimed — and trusts the server's pushes."""
        return now if self.mode == "pull" else None

    async def read(self, obj: str) -> Any:
        """Read ``obj`` under the mode's freshness rule."""
        now = self.now()
        op = self.engine.begin_read(obj, self._rule_clock(now), now)
        if op.hit:
            self._record_read(obj, op.value, now, now)
            return op.value
        reply = await self._request(op.frame)
        now = self.now()
        value = self.engine.finish_read(op, reply, now)
        self._record_read(obj, value, op.started, now)
        return value

    async def write(
        self, obj: str, value: Any, *, req: Optional[int] = None
    ) -> float:
        """Write through; returns the server-assigned effective time.

        ``req`` pins the request id (from :meth:`next_request_id`) so a
        caller-level retry — e.g. the ring's anti-entropy re-push — hits
        the server's reply cache instead of installing a second version.
        """
        op = self.engine.begin_write(obj, value, self.now())
        reply = await self._request(op.frame, req=req)
        alpha = self.engine.finish_write(op, reply, self.now())
        # alpha is the server's clock, the interval this site's: they
        # may disagree by up to epsilon (Definition 2), so an acknowledged
        # write is recorded with its interval widened to hold its stamp.
        if self.recorder is not None:
            self.recorder.record_write(
                self.client_id, obj, value, alpha,
                start=min(op.started, alpha), end=max(self.now(), alpha),
            )
        return alpha

    def next_request_id(self) -> int:
        """Allocate a request id for a pinned :meth:`write` (ids are
        never reused; allocating without sending is safe)."""
        return self.channel.next_id()

    async def validate_many(self, objs: Iterable[str]) -> Dict[str, Any]:
        """Refresh several objects in one ``validate-batch`` frame;
        returns ``{obj: value}``.

        Objects with a usable cached entry are served locally (and
        counted as fresh hits); the rest go in one frame — cached ones
        as if-modified-since items, cold ones with a null ``alpha`` that
        asks for the full version.  Each result is applied under the
        same lifetime rules as :meth:`read` and recorded as a read."""
        now = self.now()
        rule_now = self._rule_clock(now)
        out: Dict[str, Any] = {}
        ops = []
        for obj in dict.fromkeys(objs):
            op = self.engine.begin_read(obj, rule_now, now)
            if op.hit:
                self._record_read(obj, op.value, now, now)
                out[obj] = op.value
            else:
                ops.append(op)
        if not ops:
            return out
        reply = await self._request(self.engine.read_batch_frame(ops))
        now = self.now()
        values = self.engine.finish_read_batch(ops, reply, now)
        if self.pipeline is not None:
            self.pipeline.on_batch(len(ops))
        for op, value in zip(ops, values):
            self._record_read(op.obj, value, op.started, now)
            out[op.obj] = value
        return out

    # -- server-initiated traffic ----------------------------------------------

    def _on_server_frame(self, frame: Dict[str, Any]) -> None:
        now = self.now()
        if self._push_lag is not None and frame["kind"] == messages.PUSH:
            lag = now - float(frame["alpha"])
            if lag >= 0.0:
                self._push_lag.observe(lag)
        self.engine.on_server_frame(frame, now)

    # -- cluster awareness ------------------------------------------------------

    @property
    def connected(self) -> bool:
        """False once the connection is known dead (requests fail fast)."""
        return self.channel.connected

    def _note_epoch(self, frame: Dict[str, Any]) -> None:
        """Track the server's ring epoch from any stamped frame; notify
        the subscriber (the router) on each advance."""
        epoch = frame.get("epoch")
        if epoch is None:
            return
        epoch = int(epoch)
        if epoch <= self.server_epoch:
            return
        self.server_epoch = epoch
        if self.on_epoch is not None:
            try:
                self.on_epoch(epoch, self)
            except Exception:
                pass  # a broken subscriber must not kill the connection

    async def fetch_ring(self) -> Tuple[int, Optional[Dict[str, Any]]]:
        """Ask the server for its current ring: ``(epoch, ring dict or
        None)``.  Epoch 0 with no ring means a standalone server."""
        reply = await self._request({"kind": RING_FETCH})
        if reply.get("kind") != RING_STATE:
            raise ProtocolError(f"bad ring-fetch reply: {reply!r}")
        return int(reply.get("epoch", 0)), reply.get("ring")

    # -- transport --------------------------------------------------------------

    async def _request(
        self,
        message: Dict[str, Any],
        timeout: Optional[float] = None,
        req: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Issue a request down the pipeline; retransmit with exponential
        backoff until a reply with the matching id arrives.

        Up to ``pipeline_depth`` requests may be in flight at once (the
        semaphore); every attempt is one :meth:`Channel.call` under the
        same id, so duplicate and orphan replies are recognized and
        dropped.  An ``error`` reply raises :class:`ProtocolError` at
        once.  ``req`` pins the id for caller-level idempotent retries
        (the ring's repair path).
        """
        channel = self.channel
        if channel.conn is None:
            raise NetError("client is not connected")
        if not channel.connected:
            # Fail fast: the connection was seen to die.  Burning
            # the full retransmit ladder against a dead server would add
            # seconds to every failover (docs/CLUSTER.md time-to-recover
            # accounting); the caller's replica fallback handles it now.
            raise NetError(f"connection to {self.host}:{self.port} is down")
        if req is None:
            req = channel.next_id()
        async with self._issue_slots:
            wait = timeout if timeout is not None else self.request_timeout
            rtt_child = self._rtt.get(message["kind"]) if self._rtt else None
            issued = self.clock.local() if rtt_child is not None else 0.0
            attempt = 0
            while True:
                try:
                    reply = await channel.call(message, wait, req)
                except TimeoutError:
                    if attempt == self.max_retries:
                        raise RequestTimeout(
                            f"no reply to {message['kind']} #{req} after "
                            f"{self.max_retries + 1} attempts"
                        ) from None
                    attempt += 1
                    self.stats.retries += 1
                    wait *= self.backoff
                    continue
                if reply.get("kind") == ERROR:
                    raise ProtocolError(str(reply.get("error")))
                if rtt_child is not None:
                    rtt_child.observe(self.clock.local() - issued)
                return reply

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Every inbound frame once the channel has started, before the
        call it may answer resumes."""
        self._note_epoch(frame)
        if frame.get("req") is None and frame.get("kind") in (
            messages.PUSH, messages.INVALIDATE
        ):
            self._on_server_frame(frame)
        # anything else without an id is noise; ignore it

    # -- tracing -----------------------------------------------------------------

    def _record_read(self, obj: str, value: Any, start: float, now: float) -> None:
        if self.recorder is not None:
            self.recorder.record_read(
                self.client_id, obj, value, now, start=start, end=now
            )
