"""``repro.ring`` — consistent-hash sharding for the lifetime protocol.

The paper's Section 5 gives every object a single authoritative server;
the ``ObjectDirectory`` in :mod:`repro.protocol.server` is the seam where
a deployment decides *which* server that is.  This package fills the
seam with a Swift-style consistent-hash ring:

* :mod:`repro.ring.ring` — the partition ring itself: ``2**part_power``
  partitions, each assigned to ``replicas`` distinct weighted devices by
  a deterministic builder (``RingBuilder``), addressed by a stable
  md5-based object hash (no interpreter ``hash()`` randomization);
* :mod:`repro.ring.placement` — replicated placement over a ring:
  primary-plus-replica write fan-out with W-of-N acks, primary-first
  read routing with replica fallback, and delta-bounded anti-entropy
  that re-pushes a version to lagging replicas before its lifetime
  expires.

A ring change — add, remove, reweight — is a builder mutation plus
``RingBuilder.rebalance``, which keeps every still-legal slot, so the
moves are minimal; on a live cluster :mod:`repro.cluster` plans the
change and copies each moved partition from its primary before the
cutover.

The simulator consumes the ring through ``ObjectDirectory`` (placement
only: each object keeps a single authoritative primary, which is what
the protocol's correctness argument needs); the TCP stack consumes it
through :class:`repro.net.ring_router.RingRouter`, which adds real
replication on top.  docs/RING.md walks through the format and the
epsilon/delta composition across multiple server clocks.
"""

from repro.ring.placement import (
    MemoryTransport,
    PlacementError,
    PlacementStats,
    ReadOutcome,
    RepairTask,
    ReplicatedPlacement,
    WriteOutcome,
)
from repro.ring.ring import Device, Ring, RingBuilder, stable_hash, uniform_ring

__all__ = [
    "Device",
    "Ring",
    "RingBuilder",
    "stable_hash",
    "uniform_ring",
    "ReplicatedPlacement",
    "MemoryTransport",
    "PlacementError",
    "PlacementStats",
    "ReadOutcome",
    "WriteOutcome",
    "RepairTask",
]
