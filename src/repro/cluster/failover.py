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

1. drop the dead devices from every partition's replica row, keeping
   the survivors in their order;
2. the surviving slot-0 replica of each orphaned partition *is* the new
   primary (no data moves for the promotion itself);
3. the builder's rebalance refills rows left short, as it does a join's:
   the device furthest below its weight's share first, the lowest id on
   a tie.  Each refill is a :class:`PartitionMove` whose ``src`` is the
   partition's first surviving holder.  A partition with no surviving
   holder gets no copy (there is nothing to copy from), and its new
   primary runs the promotion rule, as a joiner does;
4. if fewer survivors than replicas remain, the ring runs degraded at
   ``replicas = len(survivors)`` — a later join refills the rows.

The epoch of the produced ring is ``old.epoch + 1``: strictly monotone,
so every router and server recognizes the old layout as stale.

**Join** (:func:`join_ring`).  The same plan with the joiner added in
place of the dead removed; it also refills rows a degraded failover
left short.  Both are one builder change plus a rebalance
(:func:`_plan`), and both take their copies from
:func:`cross_ring_moves`, each read from the partition's primary when
it survives — the one device certain to hold every acked write (under
W < N a displaced replica may still wait for a queued repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

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
    #: Copies to replay (``src`` always held the partition and survives).
    moves: Tuple[PartitionMove, ...] = ()

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
    survivors = len(ring.devices) - len(dead_set)
    if not survivors:
        raise ValueError(
            f"no devices survive the death of {sorted(dead_set)}; "
            "the ring cannot fail over"
        )
    return _plan(ring, min(ring.replicas, survivors), dead=dead_set)


def join_ring(
    ring: Ring, dev_id: int, address: str, *, replicas: Optional[int] = None
) -> FailoverPlan:
    """The new ring after ``dev_id`` joins at ``address``.

    ``replicas`` restores the target replica count after a degraded
    failover (defaults to the current ring's).  Promotion targets are
    the devices that gained primary ownership of any partition — a
    fresh device starts with no history at all, the extreme case of a
    blind window.
    """
    replicas = ring.replicas if replicas is None else replicas
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    return _plan(ring, replicas, joiner=(dev_id, address))


def _plan(
    ring: Ring,
    replicas: int,
    *,
    dead: AbstractSet[int] = frozenset(),
    joiner: Optional[Tuple[int, str]] = None,
) -> FailoverPlan:
    """The one ring change: a builder seeded from ``ring``, ``dead``
    removed or ``joiner`` (id, address) added at weight 1, each row's
    remaining holders kept in order (padded or cut to ``replicas``),
    rebalanced.  Its copies are :func:`cross_ring_moves`; every device
    that became some partition's primary is promoted."""
    builder = RingBuilder.from_ring(ring)
    builder.replicas = replicas
    builder._assignment = [
        ([d for d in row if d not in dead] + [None] * replicas)[:replicas]
        for row in ring.assignment
    ]
    for dev_id in dead:
        builder.remove_device(dev_id)
    if joiner is not None:
        builder.add_device(joiner[0], address=joiner[1])
    new_ring, _ = builder.rebalance()
    promoted = {
        new_row[0]
        for old_row, new_row in zip(ring.assignment, new_ring.assignment)
        if not old_row or old_row[0] != new_row[0]
    }
    return FailoverPlan(
        ring=new_ring,
        promoted=tuple(sorted(promoted)),
        moves=tuple(cross_ring_moves(ring, new_ring)),
    )


def cross_ring_moves(old: Ring, new: Ring) -> List[PartitionMove]:
    """The copies a cutover from ``old`` to ``new`` requires, for rings
    of any replica counts (a degraded failover ring has fewer rows per
    partition).  One move per device newly holding a partition, sourced
    from the first holder of the old row that is still in the new ring —
    the primary, unless it left.  A partition none of whose holders is
    left gets no copy."""
    if old.partitions != new.partitions:
        raise ValueError(
            f"rings differ in partition count: {old.partitions} vs {new.partitions}"
        )
    moves: List[PartitionMove] = []
    for part in range(old.partitions):
        before = old.assignment[part]
        sources = [d for d in before if d in new.devices]
        for replica, dst in enumerate(new.assignment[part]):
            if sources and dst not in before:
                moves.append(PartitionMove(part, replica, sources[0], dst))
    return moves
