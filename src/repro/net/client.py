"""The TCP cache client: the lifetime rules of Sections 5.1-5.2, live.

:class:`NetCacheClient` is the transport twin of the simulator's
``TimedCacheClient``: both drive the same
:class:`repro.engine.CacheEngine` — the cache
structure (versions with lifetimes, ``Context_i``, *old* entries) and
every freshness judgement live there, read as ``client.engine.cache``,
``.context``, ``.delta``; the connection, request ids and reply
matching, the retransmit ladder and the pipeline window are a
:class:`repro.net.channel.Channel`; this class owns the synchronized
clock and trace recording.

Built with ``site=`` (a :class:`~repro.net.ring_router.RingRouter`), a
client is one device link of that site: it drives the site's one engine,
handing it every stamp rebased onto the site's timescale by an offset
its connect handshake fixes (docs/THEORY.md, Result 3).  A link pulls
and never subscribes, so every stamp it hands the engine answers a
request; its ``delta`` and ``skew`` are the site's, and setting them, or
``mode="push"``, is an error.

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

Requests carry a request id; the channel retransmits after a timeout with
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
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Tuple

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

if TYPE_CHECKING:
    from repro.net.ring_router import RingRouter

FRESHNESS_MODES = ("pull", "push")

BACKOFF = 2.0  #: each retransmission or redone handshake waits this much longer
REQUEST_TIMEOUT = 0.5  #: seconds the first attempt of a request waits
MAX_RETRIES = 4  #: retransmissions before RequestTimeout: 15.5 s in all
SYNC_ROUNDS = 5  #: clock-sync exchanges of the connect handshake
SYNC_RETRIES = 3  #: handshakes redone before connect raises NetError


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
        site: Optional["RingRouter"] = None,
        registry: Optional[Any] = None,
        metric_labels: Optional[Dict[str, Any]] = None,
        pipeline_depth: int = 8,
    ) -> None:
        """``registry`` (a :class:`repro.obs.metrics.Registry`) turns on
        client-side telemetry: the :class:`ClientStats` struct binds as a
        pull collector, request RTTs land in
        ``repro_net_request_rtt_seconds{kind}``, server pushes (push
        mode only) in ``repro_net_push_lag_seconds`` (observed
        propagation delay ``now - alpha`` — the quantity delta bounds),
        and the NTP
        estimator's offset/error export as gauges.  ``metric_labels``
        adds constant labels (e.g. ``device=<id>``) next to the implicit
        ``site=<client_id>``.

        ``pipeline_depth`` bounds how many requests may be outstanding
        over the one connection at a time (the channel's window; depth 1
        is the old lockstep behaviour)."""
        if mode not in FRESHNESS_MODES:
            raise ValueError(f"mode must be one of {FRESHNESS_MODES}, got {mode!r}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        if site is not None and (delta != math.inf or skew != 0.0 or mode != "pull"):
            raise ValueError(
                "a site's device link pulls and takes delta and skew from the site"
            )
        self.client_id = client_id
        self.host = host
        self.port = port
        self.mode = mode
        self.recorder = recorder
        self.site = site
        if site is None:
            self.clock = SyncedClock(skew=skew)
            self.engine = CacheEngine(site_id=client_id, delta=delta)
        else:
            self.clock = SyncedClock(local=site.local_clock)
            self.engine = site.engine
        self.stats = self.engine.stats
        #: ``now()``: the approximately synchronized clock ``t_i`` on the
        #: engine's timescale, read in one call — the server's; in a
        #: site, the reference device's (the router points it there).
        self.now: Callable[[], float] = self.clock.now
        #: obj -> (alpha on the site's timescale, this device's own alpha)
        #: of the versions this link handed a site's engine (_asked).
        self._stamps: Dict[str, Tuple[float, Any]] = {}
        # The channel numbers, windows, retransmits and matches every
        # request; ids are never reused, so a reply that outlives its
        # request cannot resolve a later one.
        self.channel = Channel(
            client_id, host, port,
            subscribe=mode == "push", faults=faults, on_frame=self._on_frame,
            window=pipeline_depth, on_retry=self._count_retry,
        )
        # Cluster awareness: the highest ring epoch any server frame has
        # carried (0 for a standalone server); each advance is news to the
        # site.
        self.server_epoch = 0
        self.pipeline_depth = pipeline_depth
        self.registry = registry
        self._rtt = None
        self._push_lag = None
        self.pipeline = None
        if registry is not None:
            self._bind_metrics(metric_labels or {})

    def _bind_metrics(self, extra: Dict[str, Any]) -> None:
        from repro.obs.bridge import bind_client_stats
        from repro.obs.metrics import family

        labels = {"site": str(self.client_id)}
        labels.update({k: str(v) for k, v in extra.items()})
        if self.site is None:
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
                messages.VALIDATE_BATCH,
            )
        }
        if self.mode == "push":  # only a subscriber is sent pushes
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

        self.registry.register_collector(clock_collector)

        from repro.obs.instruments import PipelineInstruments

        self.pipeline = PipelineInstruments(
            self.registry, side="client", labels=labels
        )
        self.pipeline.bind_outstanding(lambda: self.channel.in_flight)

    # -- connection lifecycle -------------------------------------------------

    @property
    def conn(self) -> Optional[FrameConnection]:
        return self.channel.conn

    async def connect(self) -> "NetCacheClient":
        """Connect and synchronize; one bad handshake round is not fatal.

        A server that closes mid-sync (restart, accept-queue overflow) is
        retried on a fresh connection with capped exponential backoff;
        only after ``SYNC_RETRIES + 1`` failed handshakes does a clean
        :class:`NetError` surface.
        """
        wait = 0.05
        for attempt in range(SYNC_RETRIES + 1):
            try:
                self._note_epoch(await self.channel.open())
                await self._sync_clock(SYNC_ROUNDS)
                break
            except (ConnectionError, FrameError) as exc:
                await self.channel.close(bye=False)
                if attempt == SYNC_RETRIES:
                    raise NetError(
                        f"clock-sync handshake failed after {attempt + 1} "
                        f"attempts: {exc}"
                    ) from exc
                await asyncio.sleep(wait)
                wait = min(wait * BACKOFF, 1.0)
        # Faults attach only now: the handshake always completes, the
        # workload runs over the unreliable link.
        self.channel.attach()
        return self

    async def _sync_clock(self, rounds: int) -> None:
        """The handshake's clock-sync exchanges: the only samples the
        estimator takes, so a link's offset is fixed once connected."""
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

    async def close(self) -> None:
        await self.channel.close()

    async def __aenter__(self) -> "NetCacheClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- clocks ---------------------------------------------------------------

    @property
    def epsilon_bound(self) -> float:
        """This client's contribution to Definition 2's ``epsilon``."""
        return self.clock.epsilon_bound

    async def read(self, obj: str) -> Any:
        """Read ``obj`` under the mode's freshness rule.  The protocol
        clock handed to the engine: pull mode enforces delta against the
        synchronized clock (rule 3); push mode hands ``None`` — untimed —
        and trusts the server's pushes."""
        now = self.now()
        op = self.engine.begin_read(obj, now if self.mode == "pull" else None, now)
        if op.action == "hit":
            self._record_read(obj, op.value, now, now)
            return op.value
        reply = await self._request(self._asked(op))
        now = self.now()
        value = self.engine.finish_read(op, self._rebased(reply), now)
        self._record_read(obj, value, op.started, now)
        return value

    async def write(
        self, obj: str, value: Any, *, req: Optional[int] = None
    ) -> float:
        """Write through; returns the server-assigned effective time.

        ``req`` pins the request id (from ``channel.next_id()``) so a
        caller-level retry hits the server's reply cache instead of
        installing a second version.
        """
        op = self.engine.begin_write(obj, value, self.now())
        reply = self._rebased(await self._request(op.frame, req=req))
        now = self.now()
        alpha = self.engine.finish_write(op, reply, now)
        # alpha is the server's clock, the interval this site's: they
        # may disagree by up to epsilon (Definition 2), so an acknowledged
        # write is recorded with its interval widened to hold its stamp.
        if self.recorder is not None:
            self.recorder.record_write(
                self.client_id, op.obj, op.value, alpha,
                start=min(op.started, alpha), end=max(now, alpha),
            )
        return alpha

    async def validate_many(self, objs: Iterable[str]) -> Dict[str, Any]:
        """Refresh several objects in one ``validate-batch`` frame;
        returns ``{obj: value}``.

        Objects with a usable cached entry are served locally (and
        counted as fresh hits); the rest go in one frame — cached ones
        as if-modified-since items, cold ones with a null ``alpha`` that
        asks for the full version.  Each result is applied under the
        same lifetime rules as :meth:`read` and recorded as a read."""
        now = self.now()
        rule_now = now if self.mode == "pull" else None
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
        frame = self.engine.read_batch_frame(ops)
        for item, op in zip(frame["items"], ops):
            item["alpha"] = self._asked(op).get("alpha")
        reply = await self._request(frame)
        results = reply.get("results")
        if isinstance(results, list):
            reply = dict(reply, results=[self._rebased(r) for r in results])
        now = self.now()
        values = self.engine.finish_read_batch(ops, reply, now)
        if self.pipeline is not None:
            self.pipeline.on_batch(len(ops))
        for op, value in zip(ops, values):
            self._record_read(op.obj, value, op.started, now)
            out[op.obj] = value
        return out

    # -- server-initiated traffic ----------------------------------------------

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Every inbound frame once the channel has started, before the
        call it may answer resumes.  Unasked, only a push or invalidate
        means something; only a standalone push-mode client subscribes,
        so it applies every one it is sent, on its own timescale."""
        if frame.get("epoch") is not None:
            self._note_epoch(frame)
        if frame.get("req") is not None:
            return  # a reply: the request it answers takes it
        kind = frame.get("kind")
        if kind not in (messages.PUSH, messages.INVALIDATE):
            return
        if self._push_lag is not None and kind == messages.PUSH:
            lag = self.clock.now() - float(frame["alpha"])
            if lag >= 0.0:
                self._push_lag.observe(lag)
        self.engine.on_server_frame(frame, self.now())

    # -- one site, one timescale ----------------------------------------------

    def _rebased(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``frame`` with its stamps on the engine's timescale, ``t +
        (offset_ref - offset_d)`` (docs/RING.md): the one place a device's
        stamp meets the site's ``Context``.  A version's own alpha is
        kept in ``_stamps``, for :meth:`_asked`."""
        site = self.site
        if site is None:
            return frame
        shift = site.reference_clock.estimator.offset - self.clock.estimator.offset
        rebased = dict(frame)
        if "omega" in frame:
            rebased["omega"] = float(frame["omega"]) + shift
        if "alpha" in frame:
            rebased["alpha"] = alpha = float(frame["alpha"]) + shift
            self._stamps[frame["obj"]] = (alpha, frame["alpha"])
        return rebased

    def _asked(self, op: Any) -> Dict[str, Any]:
        """The request frame for a read the cache cannot serve.  A server
        compares a validate's alpha with ``==``, so in a site it carries
        the stamping device's own alpha, and only to that device; any
        other device is asked for the full version."""
        if self.site is None or op.action != "validate":
            return op.frame
        stamp = self._stamps.get(op.obj)
        if stamp is not None and stamp[0] == op.alpha:
            return dict(op.frame, alpha=stamp[1])
        return {"kind": messages.FETCH, "obj": op.obj}

    # -- cluster awareness ------------------------------------------------------

    @property
    def connected(self) -> bool:
        """False once the connection is known dead (requests fail fast)."""
        return self.channel.connected

    def _note_epoch(self, frame: Dict[str, Any]) -> None:
        """Track the server's ring epoch from any stamped frame; tell the
        site (the router) on each advance."""
        epoch = frame.get("epoch")
        if epoch is None:
            return
        epoch = int(epoch)
        if epoch <= self.server_epoch:
            return
        self.server_epoch = epoch
        if self.site is not None:
            self.site.note_epoch(epoch)

    async def fetch_ring(self) -> Tuple[int, Optional[Dict[str, Any]]]:
        """Ask the server for its current ring: ``(epoch, ring dict or
        None)``.  Epoch 0 with no ring means a standalone server."""
        reply = await self._request({"kind": RING_FETCH})
        if reply.get("kind") != RING_STATE:
            raise ProtocolError(f"bad ring-fetch reply: {reply!r}")
        return int(reply.get("epoch", 0)), reply.get("ring")

    # -- transport --------------------------------------------------------------

    async def _request(
        self, message: Dict[str, Any], req: Optional[int] = None
    ) -> Dict[str, Any]:
        """Issue a request down the pipeline and return its reply.

        The channel holds it while ``pipeline_depth`` requests are
        outstanding and retransmits it under the same id with
        exponential backoff, so duplicate and orphan replies are
        recognized and dropped.  An ``error`` reply raises
        :class:`ProtocolError` at once.  ``req`` pins the id for
        caller-level idempotent retries (the ring's repair path).
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
        rtt = self._rtt.get(message["kind"]) if self._rtt else None
        issued = self.clock.local() if rtt is not None else 0.0
        try:
            reply = await channel.call(
                message, REQUEST_TIMEOUT, req,
                retries=MAX_RETRIES, backoff=BACKOFF,
            )
        except TimeoutError as exc:
            raise RequestTimeout(str(exc)) from None
        if reply.get("kind") == ERROR:
            raise ProtocolError(str(reply.get("error")))
        if rtt is not None:
            rtt.observe(self.clock.local() - issued)
        return reply

    def _count_retry(self) -> None:
        self.stats.retries += 1

    # -- tracing -----------------------------------------------------------------

    def _record_read(self, obj: str, value: Any, start: float, now: float) -> None:
        if self.recorder is not None:
            self.recorder.record_read(
                self.client_id, obj, value, now, start=start, end=now
            )
