"""Generic client workloads for :class:`repro.protocol.Cluster`.

A workload is a generator function ``(cluster, client, rng) -> process``
driving one client's reads and writes.  Operations block (``yield``) until
they complete, so each client issues at most one operation at a time, as in
the paper's model of a site executing a sequence of operations.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.sim.rng import exponential


def uniform_workload(
    objects: List[str],
    n_ops: int = 50,
    mean_think_time: float = 0.1,
    write_fraction: float = 0.2,
):
    """Each client issues ``n_ops`` operations on uniformly chosen objects,
    writing with probability ``write_fraction``, with exponential think
    times in between."""
    if not objects:
        raise ValueError("need at least one object")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")

    def workload(cluster, client, rng) -> Generator:
        for _ in range(n_ops):
            yield cluster.sim.timeout(exponential(rng, 1.0 / mean_think_time))
            obj = rng.choice(objects)
            if rng.random() < write_fraction:
                value = cluster.values.next_value(client.node_id)
                yield client.write(obj, value)
            else:
                yield client.read(obj)

    return workload


def read_heavy_hotspot(
    hot_object: str = "hot",
    cold_objects: Optional[List[str]] = None,
    n_ops: int = 80,
    mean_think_time: float = 0.05,
    hot_fraction: float = 0.7,
    write_fraction: float = 0.05,
):
    """Most traffic hits one hot object; a single occasional writer makes
    the freshness-vs-traffic trade-off of rule 3 visible."""
    cold = cold_objects or [f"cold{i}" for i in range(10)]

    def workload(cluster, client, rng) -> Generator:
        for _ in range(n_ops):
            yield cluster.sim.timeout(exponential(rng, 1.0 / mean_think_time))
            obj = hot_object if rng.random() < hot_fraction else rng.choice(cold)
            if rng.random() < write_fraction:
                value = cluster.values.next_value(client.node_id)
                yield client.write(obj, value)
            else:
                yield client.read(obj)

    return workload
