"""Client-side ring routing for the TCP lifetime protocol.

A :class:`RingRouter` is one *site* of a multi-server deployment: the
site of :class:`~repro.net.client.NetCacheClient` (one engine, one
``Context_i``, one ``ClientStats``, one recorder) over one
:class:`~repro.net.client.DeviceLink` per ring device.  It routes every
operation to the owning device(s) via a
:class:`~repro.ring.placement.ReplicatedPlacement`, whose transport it
is, and records the site's trace on a single reference timescale.

**Clocks.** Every server stamps times with its own clock; one
``Context`` and a merged trace need one timescale.  All of a site's
links share one *local* clock (a ``RebasedClock``, optionally skewed),
so each device's NTP-estimated offset maps the shared local clock onto
that device's timescale.  Device timescales then compose through the
local clock: a stamp ``t`` from device ``d`` rebases onto the
*reference* device (the lowest device id), before the engine sees it,
as::

    t_ref = t + (offset_ref - offset_d)

with worst-case error ``err_d + err_ref`` (each estimate contributes
its own NTP error bound).  The router's :attr:`epsilon_bound` is
therefore ``2 * (err_ref + max_d err_d)`` — the epsilon a merged trace
must be checked with (Definition 2's pairwise precision, now across
server clocks as well as client clocks; see docs/RING.md).

**Placement.** A write runs rule 2 once, on the primary's ack (the
write's effective time); its replica copies are bare ``write`` frames
whose acks count toward the W-of-N quorum and touch no cache.  Reads
route primary-first with replica fallback; failed fan-out copies are
queued for delta-bounded anti-entropy (:meth:`start_anti_entropy`).
The links pull and never subscribe, so every stamp the engine takes
answers a request this site made (docs/THEORY.md, Result 3).
Reads are guarded: serving a read from a device outside the object's
replica set is a routing bug, counted in ``off_ring_reads`` and asserted
zero by the acceptance tests.
"""

from __future__ import annotations

import asyncio
import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Dict, Optional, Set, Tuple

from repro.engine import messages
from repro.net.client import (
    BACKOFF, MAX_RETRIES, REQUEST_TIMEOUT, DeviceLink, NetCacheClient, NetError,
    ProtocolError,
)
from repro.net.faults import FaultInjector
from repro.ring.placement import PlacementError, ReplicatedPlacement
from repro.ring.ring import Ring
from repro.sim.trace import TraceRecorder

READ_POLICIES = ("primary", "spread")

logger = logging.getLogger(__name__)


@dataclass
class RouterStats:
    """Routing-level counters, on top of the site's ``ClientStats``."""

    reads: int = 0
    writes: int = 0
    off_ring_reads: int = 0  #: reads served by a device outside the replica set
    anti_entropy_errors: int = 0  #: anti-entropy loop deaths (non-cancellation)
    ring_swaps: int = 0  #: live cutovers to a new ring (manual or epoch-driven)
    epoch_refreshes: int = 0  #: ring fetches triggered by a stale-epoch signal
    stale_retries: int = 0  #: operations retried after a refresh found a newer ring
    reads_by_device: Dict[int, int] = field(default_factory=dict)
    writes_by_device: Dict[int, int] = field(default_factory=dict)


async def _cancelled(task: Optional[asyncio.Task]) -> None:
    """Cancel ``task`` and wait for it to end.  A failure of its own was
    already reported where it happened (a done callback, a log line)."""
    if task is None:
        return
    task.cancel()
    try:
        await task
    except (asyncio.CancelledError, Exception):
        pass


class RingRouter(NetCacheClient):
    """One site's view of a ring of lifetime-protocol servers.

    ``endpoints`` maps device id -> ``(host, port)``; it must cover every
    device of ``ring``.  ``read_policy`` is ``"primary"`` (exact: always
    the authoritative device first) or ``"spread"`` (round-robin over the
    replica set — higher read throughput, freshness backed by the W-of-N
    fan-out plus anti-entropy within delta).

    ``registry`` (a :class:`repro.obs.metrics.Registry`) binds the
    router's, placement's and the site's ClientStats counters as pull
    collectors, and each link's RTT histograms and clock gauges under
    ``device=<id>``.  A live on-time judge listens to ``recorder``
    (``TraceRecorder.add_listener``).

    As the placement's transport, the router pins one request id per
    ``(device, dedup token)``: every copy of one logical write to one
    device, anti-entropy re-pushes included, goes out under it, so the
    device's reply cache replays a lost ack instead of installing a
    second version with a second effective time.
    """

    #: Bound on remembered (device, token) -> request id pins; entries
    #: clear on success, this cap only matters for writes that keep
    #: failing past the repair engine's give-up point.
    MAX_PINNED = 4096

    def __init__(
        self,
        client_id: int,
        ring: Ring,
        endpoints: Dict[int, Tuple[str, int]],
        *,
        delta: float = math.inf,
        write_quorum: Optional[int] = None,
        read_policy: str = "primary",
        recorder: Optional[TraceRecorder] = None,
        skew: float = 0.0,
        registry: Optional[Any] = None,
        pipeline_depth: int = 8,
    ) -> None:
        if read_policy not in READ_POLICIES:
            raise ValueError(
                f"read_policy must be one of {READ_POLICIES}, got {read_policy!r}"
            )
        missing = set(ring.device_ids()) - set(endpoints)
        if missing:
            raise ValueError(f"no endpoint for ring devices {sorted(missing)}")
        self._open_site(
            client_id, {dev_id: endpoints[dev_id] for dev_id in ring.device_ids()},
            None, delta, "pull", recorder, skew, registry, pipeline_depth,
        )
        self.ring = ring
        self.read_policy = read_policy
        self.stats = RouterStats()
        self.placement = ReplicatedPlacement(
            ring, self, write_quorum=write_quorum, delta=delta, clock=self.now,
        )
        self._pinned: "OrderedDict[Tuple[int, str], int]" = OrderedDict()
        self._spread_cursor = 0
        self._anti_entropy_task: Optional[asyncio.Task] = None
        self._epoch_watch_task: Optional[asyncio.Task] = None
        self._refresh_task: Optional[asyncio.Task] = None
        self._retired: Set[asyncio.Task] = set()
        if registry is not None:
            from repro.obs.bridge import bind_placement_stats, bind_router_stats

            bind_router_stats(registry, self.stats, site=client_id)
            bind_placement_stats(registry, self.placement.stats, site=client_id)

    def _link(
        self, dev_id: int, host: str, port: int, faults: Optional[FaultInjector]
    ) -> DeviceLink:
        return DeviceLink(self, host, port, {"device": dev_id}, faults)

    # -- lifecycle ------------------------------------------------------------

    async def close(self) -> None:
        await self.stop_epoch_watch()
        await _cancelled(self._refresh_task)
        self._refresh_task = None
        await self.stop_anti_entropy()
        await self.placement.drain()
        if self._retired:
            await asyncio.gather(*list(self._retired), return_exceptions=True)
            self._retired.clear()
        await super().close()

    def swap_ring(self, ring: Ring) -> None:
        """Atomic cutover after a rebalance + handoff (docs/RING.md).

        Every device of the new ring must already be connected (adding
        one needs `connect_device` first).  Devices *leaving* the ring
        are closed and dropped here — their links would otherwise leak
        sockets and metric collectors for layouts that no longer exist —
        and their queued anti-entropy repairs are discarded (the new
        ring re-homed those partitions).
        """
        missing = set(ring.device_ids()) - set(self.clients)
        if missing:
            raise ValueError(
                f"cannot swap: not connected to devices {sorted(missing)}"
            )
        removed = set(self.clients) - set(ring.device_ids())
        self.ring = ring
        self.placement.ring = ring
        self.stats.ring_swaps += 1
        if not removed:
            return
        self.placement.repairs = [
            task for task in self.placement.repairs
            if task.device not in removed
        ]
        for dev_id in sorted(removed):
            link = self.clients.pop(dev_id)
            try:
                task = asyncio.ensure_future(link.close())
            except RuntimeError:
                continue  # no running loop: nothing to close cleanly
            self._retired.add(task)
            task.add_done_callback(self._retired.discard)

    async def connect_device(self, dev_id: int, host: str, port: int) -> None:
        """Open a connection to a device about to join the ring.  One that
        fails or is cancelled is closed, and so is one that a concurrent
        refresh (reply stamp and epoch watch) already opened."""
        link = self._link(dev_id, host, port, None)
        try:
            await link.connect()
        except BaseException:
            await link.close()
            raise
        if dev_id in self.clients:
            await link.close()
            return
        self.clients[dev_id] = link

    # -- epoch subscription (docs/CLUSTER.md) ---------------------------------

    def note_epoch(self, epoch: int) -> None:
        """A server frame carried a higher ring epoch than ours: some
        layout we don't know is in force.  Schedule one refresh (a link
        calls this from ``buffer_updated`` — never block it)."""
        if epoch <= self.ring.epoch:
            return
        if self._refresh_task is None or self._refresh_task.done():
            self._refresh_task = asyncio.ensure_future(self.refresh_ring())

    async def refresh_ring(self) -> bool:
        """Fetch the ring from every reachable device and adopt the
        highest-epoch layout found; returns whether a swap happened."""
        self.stats.epoch_refreshes += 1
        best_epoch, best_ring = self.ring.epoch, None
        for dev_id in sorted(self.clients):
            link = self.clients.get(dev_id)
            if link is None or not link.channel.connected:
                continue
            try:
                epoch, ring_dict = await link.fetch_ring()
            except asyncio.CancelledError:
                raise
            except (NetError, ConnectionError):
                continue
            if ring_dict is not None and epoch > best_epoch:
                best_epoch, best_ring = epoch, ring_dict
        if best_ring is None:
            return False
        return await self.adopt_ring(Ring.from_dict(best_ring))

    async def adopt_ring(self, ring: Ring) -> bool:
        """Cut over to a strictly newer ring: connect joining devices
        (addressed by their ring ``Device.address``), swap, and let
        :meth:`swap_ring` close the departed ones."""
        if ring.epoch <= self.ring.epoch:
            return False
        for dev_id in ring.device_ids():
            if dev_id in self.clients:
                continue
            device = ring.devices[dev_id]
            if not device.address:
                raise PlacementError(
                    f"ring epoch {ring.epoch} adds device {dev_id} "
                    f"with no address to connect to"
                )
            host, _, port = device.address.rpartition(":")
            await self.connect_device(dev_id, host, int(port))
        if ring.epoch <= self.ring.epoch:
            return False  # a concurrent refresh cut over while we connected
        self.swap_ring(ring)
        return True

    def start_epoch_watch(self, period: float = 0.25) -> None:
        """Poll for newer rings every ``period`` seconds — the belt to
        the reply-stamp suspenders, for routers that go long stretches
        without issuing a request."""
        if self._epoch_watch_task is None:
            self._epoch_watch_task = asyncio.ensure_future(
                self._epoch_watch(period)
            )

    async def _epoch_watch(self, period: float) -> None:
        while True:
            await asyncio.sleep(period)
            try:
                await self.refresh_ring()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.warning(
                    "epoch watch of site %s: refresh failed: %r",
                    self.client_id, exc,
                )

    async def stop_epoch_watch(self) -> None:
        task, self._epoch_watch_task = self._epoch_watch_task, None
        await _cancelled(task)

    # -- operations -----------------------------------------------------------

    def _read_order(self, devices: Tuple[int, ...]) -> Tuple[int, ...]:
        """The replica row ``devices`` in the order the read policy asks
        them."""
        if self.read_policy == "primary" or len(devices) == 1:
            return devices
        self._spread_cursor += 1
        start = self._spread_cursor % len(devices)
        return devices[start:] + devices[:start]

    async def read(self, obj: str) -> Any:
        self.stats.reads += 1
        started = self.now()
        ring = self.ring
        devices = ring.replicas_for(obj)
        try:
            outcome = await self.placement.read(obj, self._read_order(devices))
        except PlacementError:
            # Every replica of the layout we hold failed — the layout
            # itself may be the stale thing.  Refresh, and iff a newer
            # ring was adopted, retry once against it.
            if not await self.refresh_ring():
                raise
            self.stats.stale_retries += 1
            ring = self.ring
            devices = ring.replicas_for(obj)
            outcome = await self.placement.read(obj, self._read_order(devices))
        dev, value = outcome.device, outcome.value
        if self.ring is not ring:  # swapped while the read was out
            devices = self.ring.replicas_for(obj)
        if dev not in devices:
            self.stats.off_ring_reads += 1
        by_dev = self.stats.reads_by_device
        by_dev[dev] = by_dev.get(dev, 0) + 1
        self._record_read(obj, value, started, self.now())
        return value

    async def write(self, obj: str, value: Any) -> float:
        """Replicated write; returns the effective (primary) install time
        on the reference timescale, rebased by the link that served it."""
        self.stats.writes += 1
        started = self.now()
        try:
            outcome = await self.placement.write(obj, value)
        except PlacementError:
            # Writing through a dead primary: refresh-then-retry rather
            # than failing through a layout the cluster already left.
            if not await self.refresh_ring():
                raise
            self.stats.stale_retries += 1
            outcome = await self.placement.write(obj, value)
        alpha = outcome.alpha
        self._record_write(obj, value, alpha, started, self.now())
        return alpha

    # -- the placement's transport ----------------------------------------------

    def read_from(self, device_id: int, obj: str) -> Awaitable[Any]:
        """The site's read through one device's link, for the placement
        to await (no coroutine of this one in between)."""
        return super().read(obj, self.clients[device_id])

    async def write_to(
        self, device_id: int, obj: str, value: Any, dedup: Optional[str] = None,
    ) -> float:
        """A write's primary copy: the site's write through that link,
        rule 2 and all, on the link's id pin."""
        link = self.clients[device_id]
        alpha = await super().write(
            obj, value, req=self._pin(link, device_id, dedup), link=link
        )
        self._acked(device_id, dedup)
        return alpha

    def copy_to(
        self, device_id: int, obj: str, value: Any, dedup: Optional[str] = None,
    ) -> "asyncio.Future[float]":
        """A replica copy or repair: a bare ``write`` frame sent at once.
        Its ack resolves the future where it lands, with no task per copy,
        and touches no cache."""
        link = self.clients[device_id]

        def acked(reply: Dict[str, Any]) -> float:
            if reply.get("kind") != messages.WRITE_ACK:
                raise ProtocolError(f"bad write reply: {reply!r}")
            self._acked(device_id, dedup)
            return float(reply["alpha"])  # the device's own timescale

        return link.channel.start(
            {"kind": messages.WRITE, "obj": obj, "value": value},
            REQUEST_TIMEOUT, self._pin(link, device_id, dedup),
            retries=MAX_RETRIES, backoff=BACKOFF, finish=acked,
        )

    def _pin(
        self, link: DeviceLink, device_id: int, dedup: Optional[str]
    ) -> Optional[int]:
        if dedup is None:
            return None
        key = (device_id, dedup)
        req = self._pinned.get(key)
        if req is None:
            req = link.channel.next_id()
            self._pinned[key] = req
            while len(self._pinned) > self.MAX_PINNED:
                self._pinned.popitem(last=False)
        return req

    def _acked(self, device_id: int, dedup: Optional[str]) -> None:
        if dedup is not None:
            self._pinned.pop((device_id, dedup), None)
        stats = self.stats.writes_by_device
        stats[device_id] = stats.get(device_id, 0) + 1

    # -- anti-entropy ----------------------------------------------------------

    def start_anti_entropy(self, period: float = 0.05) -> None:
        """Re-push failed fan-out copies every ``period`` seconds, so a
        lagging replica receives a version before its lifetime expires."""
        if period <= 0:
            raise ValueError(f"anti-entropy period must be positive, got {period}")
        if self._anti_entropy_task is None:
            self._anti_entropy_task = asyncio.ensure_future(
                self.placement.anti_entropy_loop(period)
            )
            # Surface a loop death the moment it happens — a silently
            # dead anti-entropy loop means replicas quietly stop
            # converging within delta.
            self._anti_entropy_task.add_done_callback(self._anti_entropy_done)

    def _anti_entropy_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.stats.anti_entropy_errors += 1
            logger.warning(
                "anti-entropy loop of site %s died: %r", self.client_id, exc
            )

    async def stop_anti_entropy(self) -> None:
        task, self._anti_entropy_task = self._anti_entropy_task, None
        await _cancelled(task)
