"""The TCP cache site: the lifetime rules of Sections 5.1-5.2, live.

Section 5 gives each site one cache, one ``Context_i`` and one
synchronized clock ``t_i``, and asks the servers over messages; the code
splits along that line.  :class:`NetCacheClient` is the site — the
transport twin of the simulator's ``TimedCacheClient``: both drive the
same :class:`repro.engine.CacheEngine` (versions with lifetimes,
``Context_i``, *old* entries, every freshness judgement, read as
``client.engine.cache``, ``.context``, ``.delta``).  The site also owns
the trace recorder, the clock ``now()`` and the rebasing of every stamp
a server hands the engine.  :class:`DeviceLink` is one connection of a
site to one server: a :class:`repro.net.channel.Channel` (request ids,
reply matching, the retransmit ladder, the pipeline window), the clock
sync of its connect handshake, and the server's ring epoch.  Built with
``(client_id, host, port)`` a site has one link;
:class:`~repro.net.ring_router.RingRouter` is the same site over one
link per ring device, and rebases a device's stamps by the offset its
handshake fixed (docs/THEORY.md, Result 3).

Two freshness modes:

* ``"pull"`` — rule 3 (``Context_i := max(t_i - delta, Context_i)``)
  enforced against the *synchronized* clock; a cached entry whose ending
  time fell behind is revalidated before use.  TSC(delta) holds by the
  protocol's own doing, whatever the network does (losses are repaired
  by retransmission).
* ``"push"`` — the site subscribes to server pushes and trusts them for
  freshness: cached entries are served without a delta check, on the
  assumption that any newer version reaches it within delta.  That
  assumption is exactly what fault injection can break — a push delayed
  beyond delta produces reads the checkers flag as late (the paper's
  observation that delta-causality fails when "late messages are never
  delivered"; cf. ``bench_push_vs_pull``).  A ring site pulls.

Requests carry a request id; the channel retransmits after a timeout with
exponential backoff, reusing the id so duplicate replies are recognized
and dropped.  The server answers every request or closes the connection
(``error`` for one it cannot serve), so a timeout is the only reason to
ask again.  Fault injection (:mod:`repro.net.faults`) attaches to the
link's outbound frames *after* the handshake, so connect/sync always
complete and the workload exercises the faults.

Reads and writes are teed into a :class:`~repro.sim.trace.TraceRecorder`:
reads at the synchronized-clock reading at completion, writes at the
server-reported install time, so a merged multi-site trace lives on the
server's timescale and can be checked offline with
``epsilon = max(site.epsilon_bound)``.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.clocks.rebase import RebasedClock
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
    FrameError,
)
from repro.sim.trace import TraceRecorder

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


class DeviceLink:
    """One connection of ``site`` to the server at ``host:port``.  It
    makes no engine call and records nothing.  ``labels`` join
    ``site=<client id>`` on its metrics (a ring site's links add
    ``device=<id>``); ``faults`` attach after the handshake."""

    def __init__(
        self,
        site: "NetCacheClient",
        host: str,
        port: int,
        labels: Dict[str, Any],
        faults: Optional[FaultInjector],
    ) -> None:
        self.site = site
        self.clock = SyncedClock(site.local_clock)
        #: The site's one ClientStats: a link counts its retries there.
        self.stats = site.engine.stats
        # The channel numbers, windows, retransmits and matches every
        # request; ids are never reused, so a reply that outlives its
        # request cannot resolve a later one.
        self.channel = Channel(
            site.client_id, host, port,
            subscribe=site.mode == "push", faults=faults,
            on_frame=self._on_frame, window=site.pipeline_depth,
            on_retry=self._count_retry,
        )
        #: The highest ring epoch any frame of this server has carried
        #: (0 for a standalone server); each advance is news to the site.
        self.server_epoch = 0
        #: obj -> (alpha on the site's timescale, the server's own alpha)
        #: of the last version the site took over this link; the site
        #: keeps and reads it (``NetCacheClient._rebased``/``_asked``).
        self.stamps: Dict[str, Tuple[float, Any]] = {}
        self._rtt = None
        self.pipeline = None
        if site.registry is not None:
            self._bind_metrics(site.registry, {
                "site": str(site.client_id),
                **{k: str(v) for k, v in labels.items()},
            })

    def _bind_metrics(self, registry: Any, labels: Dict[str, str]) -> None:
        from repro.obs.instruments import PipelineInstruments
        from repro.obs.metrics import family

        rtt = registry.histogram(
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

        registry.register_collector(clock_collector)
        self.pipeline = PipelineInstruments(registry, side="client", labels=labels)
        self.pipeline.bind_outstanding(lambda: self.channel.in_flight)

    # -- connection lifecycle -------------------------------------------------

    async def connect(self) -> "DeviceLink":
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

    # -- server-initiated traffic and epochs ----------------------------------

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Every inbound frame once the channel has started, before the
        call it may answer resumes: note its epoch, and hand an unasked
        push or invalidate (a subscriber's) to the site."""
        if frame.get("epoch") is not None:
            self._note_epoch(frame)
        if frame.get("req") is not None:
            return  # a reply: the request it answers takes it
        if frame.get("kind") in (messages.PUSH, messages.INVALIDATE):
            self.site.on_push(self, frame)

    def _note_epoch(self, frame: Dict[str, Any]) -> None:
        epoch = frame.get("epoch")
        if epoch is None:
            return
        epoch = int(epoch)
        if epoch > self.server_epoch:
            self.server_epoch = epoch
            self.site.note_epoch(epoch)

    async def fetch_ring(self) -> Tuple[int, Optional[Dict[str, Any]]]:
        """Ask the server for its current ring: ``(epoch, ring dict or
        None)``.  Epoch 0 with no ring means a standalone server."""
        reply = await self.request({"kind": RING_FETCH})
        if reply.get("kind") != RING_STATE:
            raise ProtocolError(f"bad ring-fetch reply: {reply!r}")
        return int(reply.get("epoch", 0)), reply.get("ring")

    def validate_many(self, objs: Iterable[str]) -> Any:
        """The site's :meth:`NetCacheClient.validate_many` over this link
        alone, recording nothing (a cache warm-up)."""
        return self.site.validate_many(objs, self)

    # -- requests -------------------------------------------------------------

    async def request(
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
        if not channel.connected:
            # Fail fast: never opened, closed, or seen to die.  Burning
            # the full retransmit ladder against a dead server would add
            # seconds to every failover (docs/CLUSTER.md time-to-recover
            # accounting); the caller's replica fallback handles it now.
            raise NetError(f"connection to {channel.host}:{channel.port} is down")
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


class NetCacheClient:
    """One site of the timed lifetime protocol, over one link to the
    server at ``host:port``: the site's reference, so nothing it hands
    the engine is shifted."""

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
        registry: Optional[Any] = None,
        pipeline_depth: int = 8,
    ) -> None:
        """``registry`` (a :class:`repro.obs.metrics.Registry`) turns on
        telemetry: the :class:`ClientStats` struct binds as a pull
        collector, server pushes (push mode only) land in
        ``repro_net_push_lag_seconds`` (observed propagation delay ``now
        - alpha`` — the quantity delta bounds), and each link exports its
        request RTTs in ``repro_net_request_rtt_seconds{kind}`` and its
        estimator's offset and error as gauges.

        ``pipeline_depth`` bounds how many requests may be outstanding
        over one connection at a time (the channel's window; depth 1 is
        lockstep)."""
        self._open_site(
            client_id, {0: (host, port)}, faults,
            delta, mode, recorder, skew, registry, pipeline_depth,
        )
        self.stats = self.engine.stats
        self.link = self.clients[0]

    def _open_site(
        self, client_id: int, endpoints: Dict[int, Tuple[str, int]],
        faults: Optional[FaultInjector], delta: float, mode: str,
        recorder: Optional[TraceRecorder], skew: float,
        registry: Optional[Any], pipeline_depth: int,
    ) -> None:
        """What a site has once, and a link per ``endpoints`` entry."""
        if mode not in FRESHNESS_MODES:
            raise ValueError(f"mode must be one of {FRESHNESS_MODES}, got {mode!r}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.client_id = client_id
        self.mode = mode
        self.recorder = recorder
        self.registry = registry
        self.pipeline_depth = pipeline_depth
        self.engine = CacheEngine(site_id=client_id, delta=delta)
        # One local clock under every link's estimator: offsets then
        # compose across links.
        self.local_clock = RebasedClock(offset=skew)
        #: device id -> link.
        self.clients: Dict[int, DeviceLink] = {
            dev_id: self._link(dev_id, host, port, faults)
            for dev_id, (host, port) in endpoints.items()
        }
        self.reference = min(self.clients)
        # The reference *clock* outlives the reference link: if that
        # device leaves, its estimator's last offset keeps mapping the
        # local clock onto the same timescale — a mid-trace jump would
        # corrupt every interval the checkers measure (docs/CLUSTER.md).
        self.clock = self.clients[self.reference].clock
        #: ``now()``: the synchronized clock ``t_i`` on the engine's
        #: timescale, read in one call.
        self.now: Callable[[], float] = self.clock.now
        self._push_lag = None
        if registry is not None:
            from repro.obs.bridge import bind_client_stats

            labels = {"site": str(client_id)}
            bind_client_stats(registry, self.engine.stats, **labels)
            if mode == "push":  # only a subscriber is sent pushes
                self._push_lag = registry.histogram(
                    "repro_net_push_lag_seconds",
                    "Propagation delay of server pushes (receipt time - "
                    "alpha); the quantity TSC's delta bounds",
                    labels=tuple(labels),
                ).labels(**labels)

    def _link(
        self, dev_id: int, host: str, port: int, faults: Optional[FaultInjector]
    ) -> DeviceLink:
        return DeviceLink(self, host, port, {}, faults)

    # -- connection lifecycle -------------------------------------------------

    async def connect(self) -> "NetCacheClient":
        for dev_id in sorted(self.clients):
            await self.clients[dev_id].connect()
        return self

    async def close(self) -> None:
        for link in self.clients.values():
            await link.close()

    async def __aenter__(self) -> "NetCacheClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def note_epoch(self, epoch: int) -> None:
        """A link saw a higher ring epoch; a site outside a ring has no
        layout to refresh."""

    # -- clocks ---------------------------------------------------------------

    @property
    def epsilon_bound(self) -> float:
        """This site's contribution to Definition 2's ``epsilon``: ``2 *
        err`` while its one link is its reference; with more, a rebased
        stamp carries both estimates' errors, ``2 * (err_ref + max_d
        err_d)`` (docs/RING.md)."""
        reference = self.clock.estimator
        estimators = [link.clock.estimator for link in self.clients.values()]
        if estimators == [reference]:
            return reference.epsilon_bound
        return 2.0 * (reference.error_bound + max(
            (est.error_bound for est in estimators),
            default=reference.error_bound,
        ))

    # -- operations -----------------------------------------------------------

    async def read(self, obj: str, link: Optional[DeviceLink] = None) -> Any:
        """Read ``obj`` under the mode's freshness rule.  The protocol
        clock handed to the engine: pull mode enforces delta against the
        synchronized clock (rule 3); push mode hands ``None`` — untimed —
        and trusts the server's pushes.  A read through a named ``link``
        is a leg of a routed one, which its router records."""
        now = self.now()
        op = self.engine.begin_read(obj, now if self.mode == "pull" else None, now)
        if op.action == "hit":
            if link is None:
                self._record_read(obj, op.value, now, now)
            return op.value
        via = self.link if link is None else link
        reply = await via.request(self._asked(via, op))
        now = self.now()
        value = self.engine.finish_read(op, self._rebased(via, reply), now)
        if link is None:
            self._record_read(obj, value, op.started, now)
        return value

    async def write(
        self, obj: str, value: Any, *, req: Optional[int] = None,
        link: Optional[DeviceLink] = None,
    ) -> float:
        """Write through; returns the server-assigned effective time.

        ``req`` pins the request id (from ``channel.next_id()``) so a
        caller-level retry hits the server's reply cache instead of
        installing a second version.  ``link``: as for :meth:`read`.
        """
        via = self.link if link is None else link
        op = self.engine.begin_write(obj, value, self.now())
        reply = self._rebased(via, await via.request(op.frame, req))
        now = self.now()
        alpha = self.engine.finish_write(op, reply, now)
        if link is None:
            self._record_write(obj, value, alpha, op.started, now)
        return alpha

    async def validate_many(
        self, objs: Iterable[str], link: Optional[DeviceLink] = None
    ) -> Dict[str, Any]:
        """Refresh several objects in one ``validate-batch`` frame;
        returns ``{obj: value}``.

        Objects with a usable cached entry are served locally (and
        counted as fresh hits); the rest go in one frame — cached ones
        as if-modified-since items, cold ones with a null ``alpha`` that
        asks for the full version.  Each result is applied under the
        same lifetime rules as :meth:`read` and, unless ``link`` names
        the link to ask, recorded as a read."""
        via = self.link if link is None else link
        now = self.now()
        rule_now = now if self.mode == "pull" else None
        out: Dict[str, Any] = {}
        ops = []
        for obj in dict.fromkeys(objs):
            op = self.engine.begin_read(obj, rule_now, now)
            if op.hit:
                if link is None:
                    self._record_read(obj, op.value, now, now)
                out[obj] = op.value
            else:
                ops.append(op)
        if not ops:
            return out
        frame = self.engine.read_batch_frame(ops)
        for item, op in zip(frame["items"], ops):
            item["alpha"] = self._asked(via, op).get("alpha")
        reply = await via.request(frame)
        results = reply.get("results")
        if isinstance(results, list):
            reply = dict(reply, results=[self._rebased(via, r) for r in results])
        now = self.now()
        values = self.engine.finish_read_batch(ops, reply, now)
        if via.pipeline is not None:
            via.pipeline.on_batch(len(ops))
        for op, value in zip(ops, values):
            if link is None:
                self._record_read(op.obj, value, op.started, now)
            out[op.obj] = value
        return out

    def on_push(self, link: DeviceLink, frame: Dict[str, Any]) -> None:
        """A push or invalidate a subscribed link was sent: the engine
        applies it, rebased like any other stamp."""
        if self._push_lag is not None and frame["kind"] == messages.PUSH:
            lag = link.clock.now() - float(frame["alpha"])
            if lag >= 0.0:
                self._push_lag.observe(lag)
        self.engine.on_server_frame(self._rebased(link, frame), self.now())

    # -- one site, one timescale ----------------------------------------------

    def _rebased(self, link: DeviceLink, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``frame`` with its stamps on the engine's timescale, ``t +
        (offset_ref - offset_d)`` (docs/RING.md): the one place a device's
        stamp meets the site's ``Context``.  A version's own alpha is
        kept in ``link.stamps``, for :meth:`_asked`; the reference link's
        frames shift by zero and pass as they are."""
        shift = self.clock.estimator.offset - link.clock.estimator.offset
        if "alpha" in frame:
            alpha = float(frame["alpha"]) + shift
            link.stamps[frame["obj"]] = (alpha, frame["alpha"])
        if not shift:
            return frame
        rebased = dict(frame)
        if "omega" in frame:
            rebased["omega"] = float(frame["omega"]) + shift
        if "alpha" in frame:
            rebased["alpha"] = alpha
        return rebased

    def _asked(self, link: DeviceLink, op: Any) -> Dict[str, Any]:
        """The request frame for a read the cache cannot serve.  A server
        compares a validate's alpha with ``==``, so it carries the
        stamping device's own alpha, and only to that device; any other
        device is asked for the full version."""
        if op.action != "validate":
            return op.frame
        stamp = link.stamps.get(op.obj)
        if stamp is None or stamp[0] != op.alpha:
            return {"kind": messages.FETCH, "obj": op.obj}
        return op.frame if stamp[1] == op.alpha else dict(op.frame, alpha=stamp[1])

    # -- tracing ---------------------------------------------------------------

    def _record_read(self, obj: str, value: Any, start: float, end: float) -> None:
        if self.recorder is not None:
            self.recorder.record_read(
                self.client_id, obj, value, end, start=start, end=end
            )

    def _record_write(
        self, obj: str, value: Any, alpha: float, started: float, now: float
    ) -> None:
        """The stamp is a server's clock, the interval this site's: they
        may disagree by up to epsilon (Definition 2), so an acknowledged
        write is recorded with its interval widened to hold its stamp."""
        if self.recorder is not None:
            self.recorder.record_write(
                self.client_id, obj, value, alpha,
                start=min(started, alpha), end=max(now, alpha),
            )
