"""Every ring change is one planner's: the plans pinned, and what each
one must hold.

``failover_ring`` and ``join_ring`` plan through one builder rebalance
over the ring in force.  The digest pins every plan of the sweeps below
as the hand-rolled failover refill and the join planned them before they
shared a planner: on uniform rings, where every partition keeps a
holder, the builder's refill (neediest device first, lowest id on a tie)
is the refill the failover wrote out itself.  The property test holds
over every death, those that leave a partition no holder included: a
copy is read only from a surviving holder of its partition, and every
device that becomes some partition's primary runs the promotion rule.
"""

import hashlib
from itertools import combinations

from repro.cluster import failover_ring, join_ring
from repro.ring.ring import uniform_ring

#: Computed with ``failover_ring``'s own refill loop, before both ring
#: changes planned through one builder rebalance.
DIGEST = "a5b984dadf606d4bcd059e5e1f7cbc4c2c237e0b8917fc78a33d49ad5ce9bd7c"


def uniform_rings(part_powers=(2, 3, 5, 6, 8)):
    for devices in range(1, 10):
        for replicas in range(1, min(4, devices) + 1):
            for part_power in part_powers:
                yield uniform_ring(devices, part_power, replicas)


def deaths(ring, *, every_partition_held):
    """Every set of 1-3 devices whose death leaves a survivor (and, when
    asked, a holder of every partition)."""
    for count in range(1, 4):
        for dead in combinations(sorted(ring.devices), count):
            if len(dead) == len(ring.devices):
                continue
            held = all(set(row) - set(dead) for row in ring.assignment)
            if held or not every_partition_held:
                yield dead


def record(plan):
    return (
        [list(row) for row in plan.ring.assignment], plan.ring.epoch,
        plan.ring.replicas, tuple(plan.promoted),
        sorted((m.partition, m.replica, m.src, m.dst) for m in plan.moves),
    )


def digest():
    h = hashlib.sha256()
    failovers = joins = 0
    for ring in uniform_rings():
        for dead in deaths(ring, every_partition_held=True):
            h.update(repr(("failover", dead, record(failover_ring(ring, dead))))
                     .encode())
            failovers += 1
        joiner = len(ring.devices)
        h.update(repr(("join", record(join_ring(ring, joiner, "h:1")))).encode())
        joins += 1
    return failovers, joins, h.hexdigest()


def test_no_plan_moves():
    assert digest() == (4670, 150, DIGEST)


def assert_sound(ring, plan):
    """Copies only from a surviving holder of the partition, none for a
    partition with no holder left, and every new primary promoted."""
    for move in plan.moves:
        assert move.src in ring.assignment[move.partition], move
        assert move.src in plan.ring.devices, move
    for part, (before, after) in enumerate(
        zip(ring.assignment, plan.ring.assignment)
    ):
        if after[0] != before[0]:
            assert after[0] in plan.promoted, (part, before, after)
        if not set(before) & set(plan.ring.devices):
            assert all(m.partition != part for m in plan.moves), part


def test_a_failover_copies_only_from_a_surviving_holder_and_promotes_every_new_primary():
    """Every death of 1-3 devices, a partition's last holders included:
    ``failover_ring(uniform_ring(4, 3, 2), [0, 1])`` must copy nothing
    into the partitions only 0 and 1 held, and
    ``failover_ring(uniform_ring(2, 3, 1), [0])`` must promote 1."""
    plans = 0
    for ring in uniform_rings(part_powers=(3, 5)):
        for dead in deaths(ring, every_partition_held=False):
            assert_sound(ring, failover_ring(ring, dead))
            plans += 1
        assert_sound(ring, join_ring(ring, len(ring.devices), "h:1"))
    assert plans > 1000

