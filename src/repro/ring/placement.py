"""Replicated placement over a ring: W-of-N writes, fallback reads,
delta-bounded anti-entropy.

The lifetime protocol's single-authority argument survives replication
because the ring's *primary* stays the authority: a write completes only
once the primary has installed it (the primary's install time is the
write's effective time), and reads route primary-first.  The replicas
exist for availability and read spreading; the freshness contract on a
replica is the timed one — a replica that missed a write must receive it
within the freshness bound ``delta``, i.e. before the superseded
version's lifetime ``X_i^omega`` can still satisfy a ``delta``-bounded
read.  That is what the anti-entropy queue enforces: every fan-out copy
that failed is re-pushed with a deadline of ``write time + delta``.

The transport is duck-typed so the same engine drives the in-memory
stores of the tests and the TCP stack's ring site
(:class:`~repro.net.ring_router.RingRouter`):

    async def write_to(device_id, obj, value, dedup) -> float   # install time
    def copy_to(device_id, obj, value, dedup) -> Future[float]  # a copy, sent now
    async def read_from(device_id, obj) -> value

A write starts its replica copies first, awaits the primary's copy in
place, then joins the replicas' acks as they arrive (docs/RING.md).
Only the primary's copy goes through ``write_to``, so a caching transport
runs its write protocol once per logical write; replica copies and
anti-entropy re-pushes go through ``copy_to``.
``dedup`` is one token per logical write, carried by every fan-out copy
and its anti-entropy re-pushes, so a transport can retry idempotently —
the TCP transport maps the token to a pinned request id and the
server's reply cache replays a lost ack instead of re-installing.

Transport failures must surface as exceptions (``ConnectionError``,
:class:`repro.net.client.NetError`, ...), raised by ``copy_to`` or
carried by its future; any exception from a replica write queues a
repair, any exception from a read triggers fallback to the next
replica.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.clocks.rebase import loop_time
from repro.ring.ring import Ring

#: A queued repair is dropped after this many failed rounds (and its
#: give-up shows as ``repairs_queued - repairs_done``).
MAX_REPAIR_ATTEMPTS = 8


class PlacementError(Exception):
    """A placement operation could not complete (primary unreachable,
    every replica failed, ...)."""


@dataclass
class PlacementStats:
    """Counters a cluster report or bench sums up."""

    writes: int = 0
    reads: int = 0
    fallback_reads: int = 0  #: reads served by a non-primary replica
    replica_acks: int = 0
    quorum_failures: int = 0  #: writes that finished below the W quorum
    repairs_queued: int = 0
    repairs_done: int = 0
    repairs_late: int = 0  #: repairs completed after their delta deadline

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class WriteOutcome:
    """One replicated write, as seen by the caller."""

    obj: str
    value: Any
    alpha: float  #: the primary's install time (the write's effective time)
    acked: Dict[int, float]  #: device id -> install time, as the transport returned it
    failed: Tuple[int, ...]  #: devices whose copy failed and was queued
    quorum: int


@dataclass
class ReadOutcome:
    """One routed read: the value and which device served it."""

    obj: str
    value: Any
    device: int
    fallbacks: int  #: how many replicas failed before this one answered


@dataclass
class RepairTask:
    """A replica copy that must be re-pushed before ``deadline``.

    ``dedup`` carries the originating write's dedup token: a re-push is
    a *retry* of the original fan-out copy, so the TCP transport reuses
    the same request id and a copy whose ack was merely lost is replayed
    (original ``alpha``) instead of installed twice.
    """

    device: int
    obj: str
    value: Any
    created: float
    deadline: float
    attempts: int = 0
    dedup: Optional[str] = None


class ReplicatedPlacement:
    """Primary-plus-replica routing for one ring.

    ``write_quorum`` (W) is the number of acks a write waits for before
    returning; it defaults to all N replicas of the object's partition.
    The primary's ack is always required — W only varies how many of the
    *other* replicas may lag.  Stragglers keep running in the background:
    a late ack is recorded, a late failure queues an anti-entropy repair
    with deadline ``write time + delta``.  A write whose primary copy
    fails raises :class:`PlacementError` at once, its replica copies
    running on as stragglers.

    ``clock`` supplies "now" for deadlines (defaults to the running event
    loop's clock); the TCP router passes its reference-synchronized clock
    so deadlines live on the merged trace's timescale.
    """

    def __init__(
        self,
        ring: Ring,
        transport: Any,
        *,
        write_quorum: Optional[int] = None,
        delta: float = math.inf,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if write_quorum is not None and write_quorum < 1:
            raise ValueError(f"write_quorum must be >= 1, got {write_quorum}")
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.ring = ring
        self.transport = transport
        self.write_quorum = write_quorum
        self.delta = delta
        self._clock = clock or loop_time
        self.stats = PlacementStats()
        self.repairs: List[RepairTask] = []
        self._stragglers: Set[asyncio.Future] = set()
        self._write_seq = 0

    def quorum_for(self, n_replicas: int) -> int:
        if self.write_quorum is None:
            return n_replicas
        return min(self.write_quorum, n_replicas)

    # -- writes ---------------------------------------------------------------

    async def write(self, obj: str, value: Any) -> WriteOutcome:
        """Fan the write out to the object's replica set; W-of-N acks.

        The replica copies leave first, through the transport's
        ``copy_to``; the primary's copy is awaited in place; then replica
        acks are joined in the order they arrive until W devices have
        the write."""
        self.stats.writes += 1
        devices = self.ring.replicas_for(obj)
        primary = devices[0]
        quorum = self.quorum_for(len(devices))
        started = self._clock()
        # One token per logical write: every fan-out copy (and any
        # later anti-entropy re-push of it) retries under the same
        # per-device request id, so a lost ack replays instead of
        # installing a second version.
        self._write_seq += 1
        token = f"{obj}#{self._write_seq}"
        acked: Dict[int, float] = {}
        failed: List[int] = []
        copies: Dict[asyncio.Future, int] = {}
        for dev in devices[1:]:
            try:
                copies[self.transport.copy_to(dev, obj, value, dedup=token)] = dev
            except Exception:
                failed.append(dev)
                self._queue_repair(dev, obj, value, started, token)
        pending = set(copies)

        def settle(copy: asyncio.Future) -> None:
            pending.discard(copy)
            dev = copies[copy]
            exc = copy.exception()
            if exc is None:
                acked[dev] = copy.result()
                self.stats.replica_acks += 1
            else:
                failed.append(dev)
                self._queue_repair(dev, obj, value, started, token)

        try:
            try:
                acked[primary] = await self.transport.write_to(
                    primary, obj, value, dedup=token
                )
            except Exception as exc:
                failed.append(primary)
                self._queue_repair(primary, obj, value, started, token)
                raise PlacementError(
                    f"write of {obj!r} lost its primary (device {primary}): "
                    f"{exc!r}"
                ) from exc
            if quorum == len(devices):
                # Every copy is waited for, so the order does not matter.
                for copy in copies:
                    try:
                        await copy
                    except Exception:
                        pass  # settle() reads it off the future
                    settle(copy)
            while pending and len(acked) < quorum:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for copy in done:
                    settle(copy)
        finally:
            # Stragglers past the quorum run on; their outcome is
            # recorded (late ack) or repaired (late failure) when they
            # resolve.
            for copy in pending:
                copy.add_done_callback(
                    self._straggler_done(copies[copy], obj, value, started, token)
                )
                self._stragglers.add(copy)
        if len(acked) < quorum and not pending:
            self.stats.quorum_failures += 1
        return WriteOutcome(
            obj=obj, value=value, alpha=acked[primary],
            acked=acked, failed=tuple(failed), quorum=quorum,
        )

    def _straggler_done(
        self, dev: int, obj: str, value: Any, started: float,
        token: Optional[str] = None,
    ) -> Callable[[asyncio.Future], None]:
        def _on_done(copy: asyncio.Future) -> None:
            self._stragglers.discard(copy)
            if copy.cancelled():
                return
            if copy.exception() is None:
                self.stats.replica_acks += 1
            else:
                self._queue_repair(dev, obj, value, started, token)

        return _on_done

    def _queue_repair(
        self, dev: int, obj: str, value: Any, started: float,
        token: Optional[str] = None,
    ) -> None:
        deadline = started + self.delta if not math.isinf(self.delta) else math.inf
        # One outstanding repair per (device, object): a newer value
        # supersedes the queued one (and carries the newer write's
        # dedup token — the superseded copy must not be replayed).
        for task in self.repairs:
            if task.device == dev and task.obj == obj:
                task.value = value
                task.created = started
                task.deadline = deadline
                task.attempts = 0
                task.dedup = token
                return
        self.repairs.append(
            RepairTask(dev, obj, value, started, deadline, dedup=token)
        )
        self.stats.repairs_queued += 1

    # -- reads ----------------------------------------------------------------

    async def read(
        self, obj: str, order: Optional[Sequence[int]] = None
    ) -> ReadOutcome:
        """Read with replica fallback, over ``order`` — by default the
        ring's replica row, primary first."""
        self.stats.reads += 1
        devices = self.ring.replicas_for(obj) if order is None else order
        errors: List[str] = []
        for index, dev in enumerate(devices):
            try:
                value = await self.transport.read_from(dev, obj)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # transport failure: try the next replica
                errors.append(f"device {dev}: {exc!r}")
                continue
            if index > 0:
                self.stats.fallback_reads += 1
            return ReadOutcome(obj=obj, value=value, device=dev, fallbacks=index)
        raise PlacementError(
            f"read of {obj!r} failed on every replica: " + "; ".join(errors)
        )

    # -- anti-entropy ----------------------------------------------------------

    async def repair_once(self) -> int:
        """One anti-entropy round: re-push every queued copy
        *concurrently* (one slow replica must not delay the others past
        their delta deadlines); returns how many repairs completed.  A
        repair finishing after its deadline is counted in
        ``stats.repairs_late`` — the delta bound was missed (fault
        injection can force this; healthy runs keep it at 0).  Re-pushes
        reuse the originating write's dedup token, so retrying a copy
        whose ack was lost replays the original install."""
        round_tasks = []
        for task in list(self.repairs):
            task.attempts += 1
            try:
                copy = self.transport.copy_to(
                    task.device, task.obj, task.value, dedup=task.dedup
                )
            except Exception as exc:  # refused at once: fails this round
                copy = asyncio.get_running_loop().create_future()
                copy.set_exception(exc)
            round_tasks.append((task, copy))
        results = await asyncio.gather(
            *(fut for _, fut in round_tasks), return_exceptions=True
        )
        completed = 0
        for (task, _), result in zip(round_tasks, results):
            if isinstance(result, asyncio.CancelledError):
                raise result
            if isinstance(result, BaseException):
                if (
                    task.attempts >= MAX_REPAIR_ATTEMPTS
                    and task in self.repairs
                ):
                    self.repairs.remove(task)  # give up; surfaced in stats
                continue
            if task in self.repairs:  # not superseded mid-round
                self.repairs.remove(task)
            self.stats.repairs_done += 1
            if self._clock() > task.deadline:
                self.stats.repairs_late += 1
            completed += 1
        return completed

    async def anti_entropy_loop(self, period: float) -> None:
        """Run :meth:`repair_once` forever, every ``period`` seconds."""
        while True:
            await asyncio.sleep(period)
            await self.repair_once()

    async def drain(self) -> None:
        """Await straggler writes (test/shutdown hygiene)."""
        while self._stragglers:
            await asyncio.gather(*list(self._stragglers), return_exceptions=True)


class MemoryTransport:
    """In-process dict-backed stores — the placement engine's test double.

    Each device is a ``{obj: (value, install_time)}`` dict; ``down``
    devices raise ``ConnectionError``; ``write_delay`` slows one device's
    writes to exercise W-of-N straggling.
    """

    def __init__(
        self,
        device_ids,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.stores: Dict[int, Dict[str, Tuple[Any, float]]] = {
            dev: {} for dev in device_ids
        }
        self.down: set = set()
        self.write_delay: Dict[int, float] = {}
        self._clock = clock or loop_time
        self.write_log: List[Tuple[int, str, Any]] = []
        self._dedup_done: Dict[Tuple[int, str], float] = {}

    def copy_to(
        self, device_id: int, obj: str, value: Any,
        dedup: Optional[str] = None,
    ) -> "asyncio.Future[float]":
        return asyncio.ensure_future(self.write_to(device_id, obj, value, dedup))

    async def write_to(
        self, device_id: int, obj: str, value: Any,
        dedup: Optional[str] = None,
    ) -> float:
        delay = self.write_delay.get(device_id, 0.0)
        if delay:
            await asyncio.sleep(delay)
        if device_id in self.down:
            raise ConnectionError(f"device {device_id} is down")
        # Exactly-once by token: a retried copy replays its original
        # install time instead of re-installing (the in-memory analogue
        # of the TCP server's reply cache).
        if dedup is not None:
            key = (device_id, dedup)
            done = self._dedup_done.get(key)
            if done is not None:
                return done
        alpha = self._clock()
        self.stores[device_id][obj] = (value, alpha)
        self.write_log.append((device_id, obj, value))
        if dedup is not None:
            self._dedup_done[(device_id, dedup)] = alpha
        return alpha

    async def read_from(self, device_id: int, obj: str) -> Any:
        if device_id in self.down:
            raise ConnectionError(f"device {device_id} is down")
        entry = self.stores[device_id].get(obj)
        if entry is None:
            raise KeyError(f"device {device_id} has no {obj!r}")
        return entry[0]
