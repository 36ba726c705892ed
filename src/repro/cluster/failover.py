"""Ring surgery on membership change: promotion-first failover, rebalance
on join, and the copies that must land before the cutover.

**Death** (:func:`failover_ring`).  The paper's single-authority argument
is what makes promotion sound: every partition has exactly one primary,
every acknowledged write reached the primary, and — under the default
W = N quorum — every *acked* write also reached each surviving replica.
So when the primary dies, any surviving replica is a complete promotion
target for the acked history; whatever the dying primary acknowledged in
its final moments but failed to replicate is exactly what its WAL
surfaces at merge time, and what the new primary's ``promote(bound)``
old-marking covers semantically (see
:meth:`repro.engine.ServerEngine.promote`).

The surgery is deliberately *promotion-first*, not a fresh rebalance: a
fresh rebalance would reshuffle partitions whose primaries are perfectly
healthy, turning one device's death into cluster-wide data motion at the
worst possible moment.  Instead:

1. drop the dead devices from every partition's replica row;
2. the surviving slot-0 replica of each orphaned partition *is* the new
   primary (no data moves for the promotion itself);
3. rows left short are refilled with the least-loaded surviving devices,
   each refill becoming a :class:`PartitionMove` whose ``src`` is the
   partition's surviving primary (the dead device cannot be a handoff
   source);
4. if fewer survivors than replicas remain, the ring runs degraded at
   ``replicas = len(survivors)`` — a later join refills the rows.

The epoch of the produced ring is ``old.epoch + 1``: strictly monotone,
so every router and server recognizes the old layout as stale.

**Join** (:func:`join_ring`).  A joining device is a plain rebalance of
a builder seeded from the ring in force (``RingBuilder.from_ring``),
which also refills rows a degraded failover left short; its copies are
:func:`cross_ring_moves`, each sourced from the partition's primary —
the one device certain to hold every acked write (under W < N a
displaced replica may still wait for a queued repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ring.ring import Ring, RingBuilder


@dataclass(frozen=True)
class PartitionMove:
    """One replica slot a ring change hands to a new device."""

    partition: int
    replica: int  #: slot index within the partition (0 = primary)
    src: int  #: device the copy is read from
    dst: int  #: device that holds the slot now


@dataclass
class FailoverPlan:
    """What a membership change requires before the new ring is in force."""

    ring: Ring
    #: Device ids that gained primary ownership of at least one
    #: partition; each must run the promotion rule before serving writes.
    promoted: Tuple[int, ...] = ()
    #: Copies to replay (``src`` is always a surviving device).
    moves: Tuple[PartitionMove, ...] = ()
    #: Partitions that lost their primary (promotion happened there).
    orphaned_partitions: int = 0
    #: True when survivors < replicas and the ring runs short rows.
    degraded: bool = False

    def moves_by_source(self) -> Dict[int, List[PartitionMove]]:
        out: Dict[int, List[PartitionMove]] = {}
        for move in self.moves:
            out.setdefault(move.src, []).append(move)
        return out


def failover_ring(ring: Ring, dead: Iterable[int]) -> FailoverPlan:
    """The new ring after ``dead`` devices leave, promotion-first.

    Raises ``ValueError`` when nothing survives — there is no layout to
    fail over *to*; the cluster is lost and humans take over.
    """
    dead_set = {int(d) for d in dead} & set(ring.devices)
    if not dead_set:
        return FailoverPlan(ring=ring)
    survivors = {
        dev_id: device for dev_id, device in ring.devices.items()
        if dev_id not in dead_set
    }
    if not survivors:
        raise ValueError(
            f"no devices survive the death of {sorted(dead_set)}; "
            "the ring cannot fail over"
        )
    new_replicas = min(ring.replicas, len(survivors))
    degraded = new_replicas < ring.replicas

    # Current load of the survivors, to bias refills toward the least
    # loaded (the same greedy objective the builder optimizes).
    load = {dev_id: 0 for dev_id in survivors}
    for slots in ring.assignment:
        for dev_id in slots:
            if dev_id in load:
                load[dev_id] += 1

    promoted: set = set()
    moves: List[PartitionMove] = []
    orphaned = 0
    assignment: List[List[int]] = []
    for partition, slots in enumerate(ring.assignment):
        alive_slots = [d for d in slots if d not in dead_set]
        if slots and slots[0] in dead_set and alive_slots:
            # Promotion: the surviving slot-0 replica takes authority.
            orphaned += 1
            promoted.add(alive_slots[0])
        # Refill rows left short, least-loaded survivors first, sourcing
        # the copy from a surviving holder of this partition.
        while len(alive_slots) < new_replicas:
            candidates = sorted(
                (dev_id for dev_id in survivors if dev_id not in alive_slots),
                key=lambda d: (load[d], d),
            )
            if not candidates:
                break  # fewer distinct survivors than rows want
            dst = candidates[0]
            replica = len(alive_slots)
            alive_slots.append(dst)
            load[dst] += 1
            if alive_slots[0] != dst:
                moves.append(
                    PartitionMove(partition, replica, alive_slots[0], dst)
                )
        assignment.append(alive_slots)

    new_ring = Ring(
        ring.part_power,
        new_replicas,
        survivors,
        assignment,
        epoch=ring.epoch + 1,
    )
    return FailoverPlan(
        ring=new_ring,
        promoted=tuple(sorted(promoted)),
        moves=tuple(moves),
        orphaned_partitions=orphaned,
        degraded=degraded,
    )


def cross_ring_moves(old: Ring, new: Ring) -> List[PartitionMove]:
    """The copies a cutover from ``old`` to ``new`` requires, for rings
    of any replica counts (a degraded failover ring has fewer rows per
    partition).  One move per device newly holding a partition, sourced
    from the first holder of the old row that is still in the new ring —
    the primary, unless it left."""
    if old.partitions != new.partitions:
        raise ValueError(
            f"rings differ in partition count: {old.partitions} vs {new.partitions}"
        )
    moves: List[PartitionMove] = []
    for part in range(old.partitions):
        before = old.assignment[part]
        after = new.assignment[part]
        sources = [d for d in before if d in new.devices] or list(before)
        for replica, dst in enumerate(after):
            if dst in before or not sources:
                continue
            moves.append(PartitionMove(part, replica, sources[0], dst))
    return moves


def join_ring(
    ring: Ring,
    dev_id: int,
    address: str,
    *,
    weight: float = 1.0,
    zone: int = 0,
    replicas: Optional[int] = None,
) -> FailoverPlan:
    """The new ring after ``dev_id`` joins at ``address``.

    A plain rebalance over the ring in force; ``replicas`` restores the
    target replica count after a degraded failover (defaults to the
    current ring's).  Every copy is read from the partition's primary.
    Promotion targets are the devices that gained primary ownership of
    any partition — each runs the promotion rule before serving writes
    there (a fresh device starts with no history at all, the extreme
    case of a blind window).
    """
    replicas = ring.replicas if replicas is None else replicas
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    builder = RingBuilder.from_ring(ring)
    builder.replicas = replicas
    builder._assignment = [
        (list(slots) + [None] * replicas)[:replicas]
        for slots in builder._assignment
    ]
    builder.add_device(dev_id, weight=weight, zone=zone, address=address)
    new_ring, _ = builder.rebalance()
    moves = cross_ring_moves(ring, new_ring)
    promoted = {
        new_slots[0]
        for old_slots, new_slots in zip(ring.assignment, new_ring.assignment)
        if new_slots and (not old_slots or old_slots[0] != new_slots[0])
    }
    return FailoverPlan(
        ring=new_ring,
        promoted=tuple(sorted(promoted)),
        moves=tuple(moves),
    )
