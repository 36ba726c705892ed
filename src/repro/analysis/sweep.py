"""Parameter sweeps: the delta-vs-cost simulation the paper announces.

Section 6: "The value of delta is the result of a trade-off between the
need of perceiving changes to shared objects in a timely fashion and the
availability of resources in the system.  Small values of delta require
more communications overhead ... (in extreme cases, local caches become
useless), while large values ... reduce the timeliness of the
information."  The authors state they are "currently completing detailed
simulations" of that relationship; these harnesses are that simulation.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.metrics import staleness_report, timedness_report
from repro.protocol.cache_client import StalenessAction
from repro.protocol.cluster import Cluster
from repro.protocol.server import PushPolicy
from repro.sim.network import LatencyModel

WorkloadFactory = Callable[[], Any]


def run_cluster_experiment(
    variant: str,
    delta: float,
    workload_factory: WorkloadFactory,
    n_clients: int = 4,
    n_servers: int = 1,
    seed: int = 0,
    until: Optional[float] = None,
    latency: Optional[LatencyModel] = None,
    epsilon: float = 0.0,
    push_policy: PushPolicy = PushPolicy.NONE,
    staleness_action: StalenessAction = StalenessAction.MARK_OLD,
) -> Dict[str, Any]:
    """Run one configuration to completion and measure everything.

    Returns a flat row: protocol counters, network traffic and
    ground-truth staleness/timedness of the recorded trace.
    """
    cluster = Cluster(
        n_clients=n_clients,
        n_servers=n_servers,
        variant=variant,
        delta=delta,
        seed=seed,
        latency=latency,
        epsilon=epsilon,
        push_policy=push_policy,
        staleness_action=staleness_action,
    )
    cluster.spawn(workload_factory())
    cluster.run(until)
    history = cluster.history()
    stats = cluster.aggregate_stats()
    stale = staleness_report(history)
    row: Dict[str, Any] = {
        "variant": variant,
        "delta": delta,
        "epsilon": epsilon,
        "reads": stats.reads,
        "writes": stats.writes,
        "hit_ratio": stats.hit_ratio,
        "msgs_per_read": stats.messages_per_read,
        "validations": stats.validations,
        "revalidated": stats.revalidated,
        "refreshed": stats.refreshed,
        "fetches": stats.fetches,
        "invalidations": stats.invalidations,
        "marked_old": stats.marked_old,
        "messages": cluster.message_stats.messages_sent,
        "bytes": cluster.message_stats.bytes_sent,
        "mean_staleness": stale.mean,
        "p99_staleness": stale.percentile(0.99),
        "max_staleness": stale.maximum,
        "stale_frac": stale.stale_fraction,
    }
    if not math.isinf(delta):
        timed = timedness_report(history, delta)
        row["late_frac_at_delta"] = timed["late_fraction"]
    return row


def delta_cost_sweep(
    deltas: Sequence[float],
    workload_factory: WorkloadFactory,
    variant: str = "tsc",
    base_variant: str = "sc",
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Sweep delta for a timed variant, then the untimed baseline
    (delta = inf) for comparison — Figure 4b as a cost curve."""
    rows = [
        run_cluster_experiment(variant, delta, workload_factory, **kwargs)
        for delta in deltas
    ]
    rows.append(
        run_cluster_experiment(base_variant, math.inf, workload_factory, **kwargs)
    )
    return rows


def variant_comparison(
    workload_factory: WorkloadFactory,
    delta: float = 0.5,
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """SC vs TSC(delta) vs CC vs TCC(delta) on the same workload and seed.

    The paper's Section 5.3 claim to check: under the same circumstances
    TCC invalidates (or revalidates) more than CC but less than TSC.
    """
    rows = []
    for variant in ("sc", "tsc", "cc", "tcc"):
        d = delta if variant in ("tsc", "tcc") else math.inf
        rows.append(run_cluster_experiment(variant, d, workload_factory, **kwargs))
    return rows


def policy_comparison(
    workload_factory: WorkloadFactory,
    variant: str = "tsc",
    delta: float = 0.5,
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Invalidate vs mark-old vs push propagation (Section 5.2 options)."""
    rows = []
    for label, action, push in (
        ("invalidate", StalenessAction.INVALIDATE, PushPolicy.NONE),
        ("mark-old", StalenessAction.MARK_OLD, PushPolicy.NONE),
        ("mark-old+push", StalenessAction.MARK_OLD, PushPolicy.PUSH),
        ("invalidate+server-inv", StalenessAction.INVALIDATE, PushPolicy.INVALIDATE),
    ):
        row = run_cluster_experiment(
            variant, delta, workload_factory,
            staleness_action=action, push_policy=push, **kwargs,
        )
        row["policy"] = label
        rows.append(row)
    return rows
