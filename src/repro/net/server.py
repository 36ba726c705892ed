"""The authoritative object server, over real TCP.

The framed transport of :mod:`repro.net.framing` (:func:`listen`, one
:class:`FrameConnection` per client), speaking the lifetime protocol's
message kinds
(:mod:`repro.engine.messages`):

* ``fetch``    -> ``version``        (cache miss: ship the full object);
* ``validate`` -> ``still-valid`` | ``version``  (if-modified-since by
  start-time comparison — Section 5.2's "avoids the unnecessary sending
  of large objects");
* ``write``    -> ``write-ack``      (synchronous install; the install
  instant on the *server's* clock is the write's effective time);
* ``validate-batch`` -> per-item results (bulk refresh: a
  ``still-valid`` or a ``version`` per item);
* ``push`` / ``invalidate``          (server-initiated propagation to
  subscribed clients, per the ``propagation`` policy).

The protocol itself — install logic, currency checks, the exactly-once
reply cache, ring-epoch adoption, the promotion rule — lives in the
transport-free :class:`repro.engine.ServerEngine` (read its state as
``server.engine.store``, ``.context``, ``.epoch``, ...); this class is
the TCP *driver*: it owns the sockets, the durable store and the
propagation fan-out, and turns each
:class:`~repro.engine.effects.EngineResult` into wire effects in order
(WAL append, reply, pushes).  The simulator's ``PhysicalServer`` drives
the *same* engine, which is what the conformance suite asserts.

It is also the *answering* end of the wire, once.  After the
``hello``/``hello-ack`` handshake every handler maps a frame to a reply
frame — the NTP-style ``sync`` exchange of :mod:`repro.net.clocksync`,
the data plane (``_on_request``), the control plane (``_on_cluster``,
which hands ``ping``/``ping-req``/``handoff`` to the attached cluster
agent) — and ``_answer`` alone counts the request, runs its handler and
turns a raised exception into a logged ``error`` reply; ``_release``
gives it the request's id and the ring epoch of the moment, and sends.

There is one way to serve a data-plane request: in place, in arrival
order, inside the ``buffer_updated`` that brought it, by plain functions
that run the engine and append to the log without giving up the event
loop — so no other request can run in the middle of one, and the engine
needs no lock.  The one wait a reply can take is a store-backed server's
group-commit hold (``_waits``), for an fsync on the store's thread.

Requests are executed **exactly once**: a per-client LRU reply cache
keyed ``(client_id, req)`` replays answered requests, so a write whose
ack was lost is installed once and every retransmission — which can only
arrive after its original executed — returns the original ``alpha``.

Observability: pass a :class:`repro.obs.metrics.Registry` and the server
registers a pull-model collector over its native counters (requests by
kind, propagation fan-out, connection/frame/byte accounting) — zero cost
on the request path.  ``shutdown()`` drains gracefully: stop accepting,
let the pushes of answered requests reach every subscriber's transport,
send each peer a clean ``bye`` frame, then close; ``healthy`` flips
false the moment a drain starts so a ``/healthz`` probe can steer load
away first.

The server's clock is the cluster's time reference: install times
(``alpha``) and validation times (``omega``) are stamped with it, and
clients synchronize to it, so a merged trace lives on one timescale with
the clients' residual sync error as Definition 2's ``epsilon``.
"""

from __future__ import annotations

import asyncio
import functools
import logging
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.clocks.rebase import RebasedClock
from repro.engine import ServerEngine, messages
from repro.engine.versions import PhysicalVersion
from repro.net.faults import FaultInjector
from repro.net.framing import (
    BYE,
    CLUSTER_KINDS,
    CLUSTER_STATE,
    CLUSTER_VIEW,
    ERROR,
    HELLO,
    HELLO_ACK,
    PING,
    PING_ACK,
    PROMOTE,
    PROMOTE_ACK,
    PROTOCOL_VERSION,
    RING_FETCH,
    RING_STATE,
    SYNC,
    SYNC_ACK,
    FrameConnection,
    FrameError,
    listen,
)
from repro.sim.trace import TraceRecorder

logger = logging.getLogger(__name__)

#: Propagation policies: what the server does after installing a write.
PROPAGATION_POLICIES = ("push", "invalidate", "none")

#: Pushes/invalidations one subscriber may have waiting for its socket
#: (on top of what its transport buffers up to the high-water mark).  A
#: subscriber this far behind has stopped reading and is disconnected.
SUBSCRIBER_BACKLOG = 1024


class NetObjectServer:
    """One authoritative store serving framed TCP clients.

    ``fault_factory`` builds a per-connection
    :class:`~repro.net.faults.FaultInjector` applied to the server's
    *outbound* frames — e.g. delaying only ``push`` frames models slow
    propagation while request/reply traffic stays healthy.

    ``recorder``, when given, tees installed writes into a
    :class:`~repro.sim.trace.TraceRecorder` (server-side ground truth).
    Leave it ``None`` when the clients record their own writes, or the
    merged trace would contain duplicates.

    ``store``, when given, is a :class:`repro.store.DurableStore`:
    :meth:`start` recovers from it before accepting connections (the
    version dict, the restored ``Context``, the resumed timescale, and
    the recovered-*old* marks — see :mod:`repro.store.recovery`), every
    installed write is WAL-logged *before* its acknowledgement, and the
    graceful drain writes a final clean snapshot so the next start
    replays nothing.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        propagation: str = "push",
        recorder: Optional[TraceRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
        fault_factory: Optional[Callable[[], FaultInjector]] = None,
        registry: Optional[Any] = None,
        metric_labels: Optional[Dict[str, Any]] = None,
        store: Optional[Any] = None,
    ) -> None:
        if propagation not in PROPAGATION_POLICIES:
            raise ValueError(
                f"propagation must be one of {PROPAGATION_POLICIES}, "
                f"got {propagation!r}"
            )
        self.host = host
        self.port = port
        self.propagation = propagation
        self.recorder = recorder
        self.clock = clock if clock is not None else RebasedClock()
        self.fault_factory = fault_factory
        self.engine = ServerEngine(self.clock)
        self.durable = store
        self.recovered: Optional[Any] = None
        self.agent: Optional[Any] = None  #: attached cluster SwimAgent
        if store is not None and store.instruments is not None:
            store.instruments.engine = self.engine
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[FrameConnection] = set()
        # Reply groups held for the log, ``_covered`` of them for ``_syncing``.
        self._held: List[Tuple[FrameConnection, int, List[tuple]]] = []
        self._covered = 0
        self._syncing: Optional[asyncio.Future] = None
        self._unsynced: Dict[str, int] = {}  # obj -> commit of its last write
        self._handed_off = self._on_disk = 0  # commits begun; last one synced
        # Each subscriber's outbox of pushes/invalidations, emptied by
        # its own feeder task at the pace of its socket.
        self._subscribers: Dict[FrameConnection, asyncio.Queue] = {}
        self.requests_by_kind: Dict[str, int] = {}
        self.connections_accepted = 0
        self.pushes_sent = 0
        self.invalidations_sent = 0
        self.subscribers_dropped = 0  # outbox full: stopped reading
        # Always 0: nothing sheds a request.  Its one reader is
        # benchmarks/layers/rep.py::counters.
        self.busy_sent = 0
        # Frame/byte totals of connections that already closed; live
        # connections are summed at scrape time.
        self._closed_frames = {"sent": 0, "received": 0}
        self._closed_bytes = {"sent": 0, "received": 0}
        self.draining = False
        self.registry = registry
        self.metric_labels = {
            k: str(v) for k, v in (metric_labels or {}).items()
        }
        self.pipeline = None
        if registry is not None:
            from repro.obs.bridge import bind_net_server
            from repro.obs.instruments import PipelineInstruments

            bind_net_server(registry, self, **self.metric_labels)
            self.pipeline = PipelineInstruments(
                registry, side="server", labels=self.metric_labels
            )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "NetObjectServer":
        if self.durable is not None:
            # Recover before accepting a single connection: state first,
            # then resume the persistent timescale so install times keep
            # increasing across the restart (a fresh RebasedClock would
            # restart at zero and every new write would lose the
            # latest-write-wins race against its own recovered past).
            recovered = self.durable.open()
            self.recovered = recovered
            self.engine.store.update(recovered.objects)
            self.engine.context = recovered.context
            self.engine.recovered_old = set(recovered.old_objects)
            self.clock()  # pin the timescale's zero to server start
            if isinstance(self.clock, RebasedClock):
                self.clock.offset += recovered.resume_time
            # Resume the last acknowledged ring: the server must never
            # answer with an epoch older than one it persisted, or routers
            # would trust a layout the cluster already left.
            if recovered.ring is not None:
                self.engine.adopt_ring(recovered.ring)
        else:
            self.clock()  # pin the timescale's zero to server start
        self._server = await listen(self._serve, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def healthy(self) -> bool:
        """False once a drain has started (wire to ``/healthz``)."""
        return self._server is not None and not self.draining

    def transport_totals(self) -> Dict[str, Dict[str, int]]:
        """Frame and byte totals: closed connections plus live ones."""
        frames = dict(self._closed_frames)
        octets = dict(self._closed_bytes)
        for conn in self._connections:
            frames["sent"] += conn.sent
            frames["received"] += conn.received
            octets["sent"] += conn.bytes_sent
            octets["received"] += conn.bytes_received
        return {"frames": frames, "bytes": octets}

    async def shutdown(self, grace: float = 2.0) -> None:
        """Graceful drain: stop accepting, hand the pushes of answered
        requests to the subscribers (up to ``grace`` seconds), say
        ``bye``, close.

        Safe to call from a signal handler via ``create_task``; a second
        call (or a later :meth:`close`) is a no-op for the parts already
        done.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()  # stop accepting; close() awaits it
        try:
            await asyncio.wait_for(self._drained(), grace)
        except asyncio.TimeoutError:
            pass  # grace expired: close anyway, replies may be lost
        if self.durable is not None:
            # Clean-shutdown persistence, before the BYE frames: every
            # acknowledged write fsynced, a final snapshot marked clean —
            # the next start loads it and replays nothing.
            self.durable.close_clean(
                self.engine.store, self.engine.context, self.clock()
            )
        for conn in list(self._connections):
            await conn.send({"kind": BYE, "reason": "server shutdown"})
        await self.close()

    async def _drained(self) -> None:
        """Every held reply, and what answered requests propagated, handed
        to its transport.  No request is mid-execution while this waits:
        each is executed without giving up the loop."""
        while self._syncing is not None:  # and so a reply is held
            await asyncio.wait((self._syncing,))
        for outbox in list(self._subscribers.values()):
            await outbox.join()

    async def close(self) -> None:
        await self._close_connections()
        if self.durable is not None:
            await self._drained()  # the worker returns before the log closes
            self.durable.close(sync=True)  # no-op after a clean shutdown
        # The collector stays registered: a registry is scoped to one
        # deployment/run, and post-run snapshots must still carry the
        # server's final counters.

    async def _close_connections(self) -> None:
        """Stop accepting, close every connection, then wait for the
        listener and for the tasks this server started.  The order
        matters since Python 3.12: ``wait_closed()`` there waits for the
        accepted connections too, so it has to come after closing them."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        tasks = [conn.handler_task for conn in self._connections]
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        self._subscribers.clear()
        if server is not None:
            await server.wait_closed()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def __aenter__(self) -> "NetObjectServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- connection handling -------------------------------------------------

    async def _serve(self, conn: FrameConnection) -> None:
        if self._server is None:
            # Accepted while the server was closing, started after it
            # closed the others: nobody else will close this one.
            await conn.close()
            return
        if self.fault_factory is not None:
            conn.faults = self.fault_factory()
        self._connections.add(conn)
        self.connections_accepted += 1
        feeder: Optional[asyncio.Task] = None
        tasks: Set[asyncio.Task] = set()  # the control plane's, in flight
        try:
            hello = await conn.recv() or {}
            client_id = hello.get("client_id")
            refusal = None
            # Not isinstance: ``true`` would be served as client 1 and
            # share its exactly-once keys.
            if hello.get("kind") != HELLO or type(client_id) is not int:
                refusal = "expected hello with an integer client_id"
            elif hello.get("protocol", PROTOCOL_VERSION) != PROTOCOL_VERSION:
                # Stated and not ours; a hello that states none (a raw
                # peer, ``nc``) is served.
                refusal = (f"wire protocol {hello['protocol']!r} asked for, "
                           f"this server speaks {PROTOCOL_VERSION}")
            if refusal is not None:
                await conn.send({"kind": ERROR, "error": refusal})
                return
            await conn.send(self.engine.stamp({
                "kind": HELLO_ACK,
                "protocol": PROTOCOL_VERSION,
                "server_time": self.clock(),
                "propagation": self.propagation,
            }))
            if hello.get("subscribe"):
                outbox = self._subscribers[conn] = asyncio.Queue(SUBSCRIBER_BACKLOG)
                feeder = asyncio.ensure_future(self._feed(conn, outbox))
            # From here on requests are answered from buffer_updated, in
            # place; this task only waits for the stream to end.
            conn.deliver(functools.partial(self._answer, conn, client_id, tasks))
            await conn.recv()
        except (FrameError, ConnectionError):
            pass  # corrupt or vanished peer: drop the connection
        finally:
            while any(group[0] is conn for group in self._held):
                await asyncio.wait((self._syncing,))  # owed, if half-closed
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            self._subscribers.pop(conn, None)
            if feeder is not None:
                feeder.cancel()
                await asyncio.gather(feeder, return_exceptions=True)
            self._connections.discard(conn)
            self._closed_frames["sent"] += conn.sent
            self._closed_frames["received"] += conn.received
            self._closed_bytes["sent"] += conn.bytes_sent
            self._closed_bytes["received"] += conn.bytes_received
            await conn.close()

    def _answer(
        self, conn: FrameConnection, client_id: int,
        tasks: Set[asyncio.Task], frames: List[Dict[str, Any]],
    ) -> None:
        """The answering end of every request, whatever its kind: count
        each frame of one ``buffer_updated`` call and run its handler, in
        arrival order; ``_release`` sends the replies.

        The data-plane frames form one burst: with a store, from the first
        reply that must wait for the log (``_waits``) on, its replies are
        held, for one commit (``_hold``).  ``sync``, ``bye`` and the
        control plane — which may wait (an indirect probe, a handoff), so
        each request runs in a task, kept in ``tasks`` — end the burst.  A
        ``sync`` held behind its connection's replies is a loose clock
        sample, which the client's minimum-round-trip filter passes over.

        A handler that raises is logged and answered with an ``error``
        frame.  Silence is the one answer a timed protocol cannot
        afford: the asker would walk its whole retransmit ladder —
        seconds, against a Δ of milliseconds — to learn the same thing.
        """
        store = self.durable
        held: List[tuple] = []  # (request, reply, versions it installed)
        for frame in frames:
            kind = str(frame.get("kind"))
            if kind == BYE:
                conn.transport.pause_reading()  # no frame after it is read
                held.append((frame, None, ()))
                self._hold(conn, client_id, held)
                return
            self.requests_by_kind[kind] = self.requests_by_kind.get(kind, 0) + 1
            if kind in CLUSTER_KINDS:
                self._hold(conn, client_id, held)
                task = asyncio.ensure_future(self._control(conn, client_id, frame))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                continue
            installed: Sequence[PhysicalVersion] = ()
            if kind == SYNC:
                # Never cached or deduped: a replayed timestamp would poison
                # the client's NTP estimator.  ``req`` is echoed, as on any reply.
                self._hold(conn, client_id, held)
                t1 = self.clock()
                reply = {
                    "kind": SYNC_ACK, "req": frame.get("req"),
                    "t0": frame.get("t0"), "t1": t1, "t2": self.clock(),
                }
            else:
                try:
                    reply, installed = self._on_request(client_id, frame)
                except Exception as exc:
                    logger.exception("request %r from client %d failed", kind, client_id)
                    reply = self._refusal(client_id, frame, exc)
            wait = store is not None and (held or self._waits(conn, reply))
            held.append((frame, reply, installed))
            if not wait:
                self._release(conn, client_id, held)
        if held:
            self._hold(conn, client_id, held)

    async def _control(
        self, conn: FrameConnection, client_id: int, frame: Dict[str, Any]
    ) -> None:
        """One control-plane request, in its own task (``_answer``)."""
        try:
            reply = await self._on_cluster(frame)
        except Exception as exc:
            logger.exception("request %r from client %d failed",
                             frame.get("kind"), client_id)
            reply = self._refusal(client_id, frame, exc)
        self._hold(conn, client_id, [(frame, reply, ())])

    def _waits(self, conn: FrameConnection, reply: Optional[Dict[str, Any]]) -> bool:
        """Whether a reply must wait for the log: a reply before it on
        ``conn`` is held, or it reflects a write not yet on disk."""
        if any(group[0] is conn for group in self._held):
            return True
        return reply is not None and any(
            self._unsynced.get(result.get("obj"), 0) > self._on_disk
            for result in reply.get("results") or (reply,))

    def _hold(self, conn: FrameConnection, client_id: int, held: List[tuple]) -> None:
        """``_release`` ``held``, or if its first reply waits, queue it."""
        if not held:
            return
        if self.durable is None or not self._waits(conn, held[0][1]):
            self._release(conn, client_id, held)
            return
        self._held.append((conn, client_id, held[:]))
        held.clear()
        if self._syncing is None:
            self._commit()

    def _commit(self) -> None:
        """Snapshot if due, then hand the log to the OS and its fsync to
        the store's thread, for every held group; the loop serves on."""
        self._covered = len(self._held)
        handoff = self._handed_off = self._handed_off + 1
        try:
            self.durable.maybe_snapshot(self.engine.store, self.engine.context,
                                        self.clock())
            self._syncing = self.durable.commit_soon()
        except Exception as exc:
            self._committed(handoff, exc)
            return
        if self._syncing is None:
            self._committed(handoff, None)
        else:
            self._syncing.add_done_callback(
                lambda done: self._committed(handoff, done.exception()))

    def _committed(self, handoff: int, failure: Optional[BaseException]) -> None:
        """Commit ``handoff`` is done: release the groups it covered, in
        execution order, and commit those held since.  If it failed, each
        reply it covered is answered ``error`` and forgotten by the reply
        cache: a retransmission is re-executed, never replayed as an ack."""
        self._syncing = None
        if failure is None:
            self._on_disk = handoff
        else:
            logger.error("log commit failed", exc_info=failure)
        covered, self._held = self._held[:self._covered], self._held[self._covered:]
        for conn, client_id, held in covered:
            if failure is not None:
                held[:] = [
                    (asked, self._refusal(client_id, asked, failure), ())
                    for asked, _, _ in held
                ]
            self._release(conn, client_id, held)
        if self._held:
            self._commit()

    def _release(self, conn: FrameConnection, client_id: int, held: List[tuple]) -> None:
        """Send the replies in ``held`` and empty it, and after each reply
        record and propagate what its request installed.  A reply too
        large to frame ends the connection; its asker fails fast."""
        for asked, reply, installed in held:
            if reply is None:  # a bye: the connection ends once it is reached
                conn.transport.close()
                continue
            if "req" not in reply:
                reply = {**reply, "req": asked.get("req")}
            try:
                # The epoch of *now*, which a replayed reply's may not be;
                # stamp copies, so a reply the engine cached is never mutated.
                conn.write(self.engine.stamp(reply))
            except FrameError:
                logger.exception("reply to client %d cannot be framed", client_id)
                conn.transport.close()
            for version in installed:
                if self.recorder is not None:
                    self.recorder.record_write(
                        client_id, version.obj, version.value, version.alpha
                    )
                if self._subscribers and self.propagation != "none":
                    self._propagate(conn, version)
        held.clear()

    def _refusal(
        self, client_id: int, frame: Dict[str, Any], exc: Exception
    ) -> Dict[str, Any]:
        """The ``error`` reply to a request that failed, or whose log
        commit did.  The engine caches a reply as it executes, before the
        WAL append and the commit that can still fail; what failed is
        answered ``error`` on the retransmit too, not replayed: an
        unlogged write is never acknowledged (docs/STORE.md)."""
        self.engine.replies.discard(self.engine.dedup_key(client_id, frame))
        return {"kind": ERROR, "error": f"{type(exc).__name__}: {exc}"}

    # -- the cluster control plane (repro.cluster; docs/CLUSTER.md) -----------

    def set_ring(self, ring_dict: Dict[str, Any]) -> bool:
        """Adopt a serialized ring iff none is held or it is strictly
        newer; persists the acknowledged ring into ``meta.json`` so a
        restart resumes it and never trusts a layout the cluster moved
        past."""
        adopted = self.engine.adopt_ring(ring_dict)
        if adopted and self.durable is not None:
            self.durable.save_ring(self.engine.ring)
        return adopted

    async def _on_cluster(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to a control-plane frame.  Like SYNC these are
        outside the exactly-once data plane: no dedup."""
        kind = frame.get("kind")
        if kind == RING_FETCH:
            return {
                "kind": RING_STATE,
                "epoch": self.engine.epoch, "ring": self.engine.ring,
            }
        if kind == CLUSTER_STATE:
            view = self.agent.view.wire_payload() if self.agent is not None else None
            return {
                "kind": CLUSTER_VIEW, "epoch": self.engine.epoch, "view": view,
            }
        if kind == PROMOTE:
            # The engine's promotion rule (store recovery with the
            # detection bound playing Δ), synchronous like every request.
            outcome = self.engine.promote(float(frame.get("bound", 0.0)))
            if self.agent is not None:
                self.agent.on_promoted(outcome)
            return {"kind": PROMOTE_ACK, "epoch": self.engine.epoch, **outcome}
        if self.agent is not None:  # PING, PING_REQ, HANDOFF
            return await self.agent.answer(frame)
        if kind == PING:
            # No agent attached: still answer — a bare server is alive.
            return {"kind": PING_ACK}
        return {
            "kind": ERROR, "error": f"no cluster agent attached for {kind!r}",
        }

    async def abort(self) -> None:
        """Crash simulation: vanish mid-flight — no BYE, no clean
        snapshot, no drain.  The WAL is synced as it closes
        (log-before-ack means every *acknowledged* write was committed
        to it; the sync models it having reached the disk, which a real
        SIGKILL — covered by the CI shell smoke — also guarantees under
        ``fsync=always``).  What remains is exactly what a crashed
        process leaves: a WAL suffix and a stale snapshot; no held reply.
        """
        self.draining = True
        self._held, self._covered = [], 0
        await self.close()

    def _on_request(
        self, client_id: int, frame: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Sequence[PhysicalVersion]]:
        """The reply to a data-plane request and the versions it
        installed, executing it at most once: a retransmission of an
        answered request replays the original reply (same alpha) and
        executes nothing; anything else runs through the engine and
        appends what it wrote to the log, grouped — ``_answer`` commits
        the log before the ack leaves (an acknowledged write is always
        in the WAL, which is what makes the recovery replay complete).

        A plain ``def``, so nothing else runs in the middle of it (the
        engine needs no lock) and an ``await`` here is a syntax error,
        not a race.  A retransmission is therefore looked up only after
        its original has executed: it cannot race it."""
        result = self.engine.execute(client_id, frame)
        if self.durable is not None and result.wal:
            with self.durable.group():
                for version in result.wal:
                    self.durable.log_write(version)
                    self._unsynced[version.obj] = self._handed_off + 1
        if (self.pipeline is not None
                and result.reply.get("kind") == messages.VALIDATE_BATCH_ACK):
            self.pipeline.on_batch(len(result.reply["results"]))
        return result.reply, result.installed

    def _propagate(
        self, writer_conn: FrameConnection, version: PhysicalVersion
    ) -> None:
        """Server-initiated propagation to every other subscriber: queue
        the frame for each one's feeder.  Never waits — a subscriber that
        stopped reading must not park the writer's connection handler —
        and never queues without bound: one whose outbox is full is
        disconnected (its handler then cleans up as for any lost peer)."""
        if self.propagation == "push":
            frame = self.engine.push_frame(version)
        else:
            frame = self.engine.invalidate_frame(version)
        for conn, outbox in list(self._subscribers.items()):
            if conn is writer_conn:
                continue
            try:
                outbox.put_nowait(frame)
            except asyncio.QueueFull:
                del self._subscribers[conn]
                self.subscribers_dropped += 1
                conn.transport.abort()

    async def _feed(self, conn: FrameConnection, outbox: asyncio.Queue) -> None:
        """One subscriber's pushes/invalidations, in order; ``send``
        suspends while its transport has paused writing."""
        while True:
            frame = await outbox.get()
            await conn.send(frame)
            if frame["kind"] == messages.PUSH:
                self.pushes_sent += 1
            else:
                self.invalidations_sent += 1
            outbox.task_done()
