"""Ring membership changes and handoff replay.

Growing (or shrinking, or reweighting) a deployment is a three-step
dance:

1. mutate the builder (``add_device`` / ``remove_device`` /
   ``set_weight``) and :meth:`~repro.ring.ring.RingBuilder.rebalance` —
   the builder keeps every still-legal assignment, so the resulting
   :class:`PartitionMove` list is minimal;
2. **replay the handoff**: copy every object whose partition moved from
   the old device to the new one *before* clients start routing by the
   new ring — a moved partition whose objects were not copied would
   serve initial values, which the checkers would flag as reads of
   values older than delta allows;
3. cut over: publish the new ring at a higher epoch (routers re-read
   ``replicas_for`` per operation, so adopting the ring is the cutover).

:class:`Rebalancer` is step 1 (``repro ring add``/``rebalance``, and
:func:`repro.cluster.failover.join_ring`); :func:`replay_handoff` is
step 2 over any placement transport.  A live cluster runs all three
from its coordinator (:mod:`repro.cluster.swim`): each donor replays
its moves from its own store, so a copy is always the authority's
version, and the epoch carries the cutover.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.ring.ring import Ring, RingBuilder

#: A failed handoff read or write is retried after BACKOFF seconds,
#: the wait doubling up to MAX_BACKOFF.
BACKOFF = 0.05
MAX_BACKOFF = 1.0


@dataclass(frozen=True)
class PartitionMove:
    """One replica slot that changed device in a rebalance."""

    partition: int
    replica: int  #: slot index within the partition (0 = primary)
    src: int  #: device that held the slot before
    dst: int  #: device that holds it now


@dataclass
class HandoffReport:
    """What a handoff replay actually copied."""

    moves: int
    partitions_touched: int
    objects_copied: int
    objects_missing: int  #: moved objects the source had never stored
    retries: int = 0  #: transient-failure retries that were attempted


async def _with_retry(
    operation: Callable[[], Any], *, retries: int
) -> Tuple[Any, int]:
    """Run ``operation`` with bounded retry and capped exponential
    backoff (the client clock-sync handshake discipline applied to
    handoff I/O).  Returns ``(result, retries_used)``; the final
    failure propagates.  :class:`KeyError` is a *definitive* answer
    ("this device never stored that object"), not a transient fault, so
    it propagates immediately."""
    wait = BACKOFF
    used = 0
    for attempt in range(retries + 1):
        try:
            return await operation(), used
        except (asyncio.CancelledError, KeyError):
            raise
        except Exception:
            if attempt == retries:
                raise
            used += 1
            await asyncio.sleep(wait)
            wait = min(wait * 2.0, MAX_BACKOFF)
    raise AssertionError("unreachable")


def diff_rings(old: Ring, new: Ring) -> List[PartitionMove]:
    """The slot-level difference between two rings of the same shape."""
    if old.partitions != new.partitions or old.replicas != new.replicas:
        raise ValueError(
            "rings differ in shape: "
            f"{old.partitions}x{old.replicas} vs {new.partitions}x{new.replicas}"
        )
    moves = []
    for part in range(old.partitions):
        before, after = old.assignment[part], new.assignment[part]
        for r in range(old.replicas):
            if before[r] != after[r]:
                moves.append(PartitionMove(part, r, before[r], after[r]))
    return moves


async def replay_handoff(
    moves: Iterable[PartitionMove],
    objects: Iterable[str],
    old_ring: Ring,
    transport: Any,
    *,
    retries: int = 3,
) -> HandoffReport:
    """Copy every moved object from its old device to its new one.

    ``objects`` enumerates the namespace (the deployment's object
    catalog); each object is copied once per move of its partition.  A
    source read failure for an object the device never stored is counted
    but not fatal — the destination will serve the initial value, which
    is only correct for never-written objects, hence the counter.

    Each read and write is attempted up to ``1 + retries`` times with
    capped exponential backoff (``BACKOFF`` doubling up to
    ``MAX_BACKOFF``), so one transient connection error no longer aborts
    the whole handoff; the attempts used are summed in
    ``HandoffReport.retries``.
    """
    moves = list(moves)
    by_partition: Dict[int, List[PartitionMove]] = {}
    for move in moves:
        by_partition.setdefault(move.partition, []).append(move)
    copied = missing = retried = 0
    touched = set()
    for obj in objects:
        part = old_ring.partition_for(obj)
        for move in by_partition.get(part, ()):
            touched.add(part)
            try:
                value, used = await _with_retry(
                    lambda: transport.read(move.src, obj), retries=retries
                )
                retried += used
            except asyncio.CancelledError:
                raise
            except KeyError:
                missing += 1  # definitive: never stored there
                continue
            except Exception:
                retried += retries  # exhausted the retry budget
                missing += 1
                continue
            send = value  # bind for the closure below
            _, used = await _with_retry(
                lambda: transport.write(move.dst, obj, send), retries=retries
            )
            retried += used
            copied += 1
    return HandoffReport(
        moves=len(moves),
        partitions_touched=len(touched),
        objects_copied=copied,
        objects_missing=missing,
        retries=retried,
    )


class Rebalancer:
    """Builder mutations + minimal-move computation, in one place.

    Keeps the *current* ring; every mutation returns ``(new_ring,
    moves)`` where ``moves`` is the exact slot-level diff, for the
    caller to hand off (:func:`replay_handoff`) before it publishes
    ``new_ring``.
    """

    def __init__(self, builder: RingBuilder, ring: Optional[Ring] = None) -> None:
        self.builder = builder
        if ring is None:
            ring, _ = builder.rebalance()
        self.ring = ring

    def _apply(
        self, mutate: Callable[[RingBuilder], None]
    ) -> Tuple[Ring, List[PartitionMove]]:
        mutate(self.builder)
        new_ring, _ = self.builder.rebalance()
        moves = diff_rings(self.ring, new_ring)
        self.ring = new_ring
        return new_ring, moves

    def add_device(
        self,
        dev_id: Optional[int] = None,
        weight: float = 1.0,
        zone: int = 0,
        address: str = "",
    ) -> Tuple[Ring, List[PartitionMove]]:
        return self._apply(
            lambda b: b.add_device(dev_id, weight=weight, zone=zone, address=address)
        )

    def remove_device(self, dev_id: int) -> Tuple[Ring, List[PartitionMove]]:
        return self._apply(lambda b: b.remove_device(dev_id))

    def set_weight(self, dev_id: int, weight: float) -> Tuple[Ring, List[PartitionMove]]:
        return self._apply(lambda b: b.set_weight(dev_id, weight))
