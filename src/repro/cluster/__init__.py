"""repro.cluster — gossip membership, SWIM failure detection, and
epoch-driven automatic failover.

The subsystem that removes the human from ``swap_ring``: agents embedded
in each server probe each other (direct ping, then indirect through k
proxies), gossip a :class:`ClusterView` on every probe frame, declare
unresponsive members suspect → dead with incarnation-numbered
refutation, and — on a death — have the coordinator promote surviving
replicas using the paper's single-authority recovery rule and announce
a higher ring epoch that routers adopt automatically.

See ``docs/CLUSTER.md`` for the member state machine, the epoch
protocol, and the Δ-accounting of detection latency.
"""

from repro.cluster.failover import (
    FailoverPlan,
    PartitionMove,
    cross_ring_moves,
    failover_ring,
    join_ring,
)
from repro.cluster.swim import (
    CLUSTER_CLIENT_BASE,
    ClusterConfig,
    SwimAgent,
)
from repro.cluster.view import (
    ALIVE,
    DEAD,
    LEFT,
    STATES,
    SUSPECT,
    ClusterView,
    MemberInfo,
    supersedes,
)

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "STATES",
    "CLUSTER_CLIENT_BASE",
    "ClusterConfig",
    "ClusterView",
    "FailoverPlan",
    "MemberInfo",
    "PartitionMove",
    "SwimAgent",
    "cross_ring_moves",
    "failover_ring",
    "join_ring",
    "supersedes",
]
