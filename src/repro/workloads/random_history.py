"""Random history generators for checker tests and the hierarchy census.

Four generators spanning the regions of Figure 4a:

* :func:`random_linearizable_history` — legal in real-time order, so LIN
  (and everything above it) by construction;
* :func:`random_sc_history` — a legal program-order-respecting
  serialization whose effective times are decoupled from the serialization
  order: SC by construction, usually not LIN;
* :func:`random_replica_history` — write-only producers whose writes reach
  each reader replica with per-replica delays but per-writer FIFO order:
  CC by construction (causality between writes here is exactly per-writer
  program order), usually not SC;
* :func:`random_history` — unconstrained read values: usually not even CC.

All generators keep histories small (exact SC/CC checking is NP-complete)
and deterministic for a given ``random.Random``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.history import History
from repro.core.operations import Operation, read, write


def _unique_value(site: int, counter: List[int]) -> str:
    counter[0] += 1
    return f"v{site}.{counter[0]}"


def random_linearizable_history(
    rng: random.Random,
    n_sites: int = 3,
    n_objects: int = 2,
    n_ops: int = 14,
    write_fraction: float = 0.4,
) -> History:
    """Build a legal sequence with strictly increasing effective times."""
    objects = [f"X{i}" for i in range(n_objects)]
    current: Dict[str, object] = {}
    ops: List[Operation] = []
    counter = [0]
    time = 0.0
    for _ in range(n_ops):
        time += rng.uniform(0.5, 2.0)
        site = rng.randrange(n_sites)
        obj = rng.choice(objects)
        if rng.random() < write_fraction:
            value = _unique_value(site, counter)
            current[obj] = value
            ops.append(write(site, obj, value, time))
        else:
            ops.append(read(site, obj, current.get(obj, 0), time))
    return History(ops)


def random_sc_history(
    rng: random.Random,
    n_sites: int = 3,
    n_objects: int = 2,
    n_ops: int = 14,
    write_fraction: float = 0.4,
) -> History:
    """SC by construction: build a legal serialization, then hand each site
    effective times that respect only its *own* program order.

    The serialization order and the time order disagree across sites, so
    the result is usually not linearizable.
    """
    base = random_linearizable_history(rng, n_sites, n_objects, n_ops, write_fraction)
    # Positions in the legal sequence, per site.
    by_site: Dict[int, List[Operation]] = {}
    for op in sorted(base.operations, key=lambda o: o.time):
        by_site.setdefault(op.site, []).append(op)
    # Draw a fresh, independent time axis per site: each site's ops get
    # increasing times, but globally the serialization order is scrambled.
    ops: List[Operation] = []
    for site, site_ops in by_site.items():
        times = sorted(rng.uniform(0.0, 10.0 + n_ops) for _ in site_ops)
        for op, t in zip(site_ops, times):
            ctor = read if op.is_read else write
            ops.append(ctor(op.site, op.obj, op.value, t))
    return History(ops)


def random_replica_history(
    rng: random.Random,
    n_writers: int = 2,
    n_readers: int = 2,
    n_objects: int = 2,
    writes_per_writer: int = 3,
    reads_per_reader: int = 4,
    max_delay: float = 8.0,
) -> History:
    """CC by construction: per-writer FIFO replica propagation.

    Writers only write; each reader replica applies each writer's writes in
    program order but with its own random delays, and reads return the
    replica's current value.  Causality between writes is exactly
    per-writer program order (writers never read), so FIFO application
    yields causal consistency; different interleavings across readers
    usually break SC.
    """
    objects = [f"X{i}" for i in range(n_objects)]
    counter = [0]
    ops: List[Operation] = []
    # Writers emit their writes.
    writer_writes: List[List[Operation]] = []
    for w in range(n_writers):
        time = rng.uniform(0.0, 1.0)
        mine: List[Operation] = []
        for _ in range(writes_per_writer):
            time += rng.uniform(0.5, 2.0)
            obj = rng.choice(objects)
            value = _unique_value(w, counter)
            mine.append(write(w, obj, value, time))
        writer_writes.append(mine)
        ops.extend(mine)
    # Each reader applies writes with per-writer FIFO random delays.
    for r in range(n_readers):
        site = n_writers + r
        arrivals: List[Tuple[float, Operation]] = []
        for mine in writer_writes:
            last_arrival = 0.0
            for op in mine:
                arrival = max(op.time + rng.uniform(0.1, max_delay), last_arrival + 1e-3)
                arrivals.append((arrival, op))
                last_arrival = arrival
        arrivals.sort(key=lambda pair: pair[0])
        # Interleave reads at random instants.
        read_times = sorted(rng.uniform(0.5, 12.0 + max_delay) for _ in range(reads_per_reader))
        applied: Dict[str, object] = {}
        pending = list(arrivals)
        for t in read_times:
            while pending and pending[0][0] <= t:
                _, w_op = pending.pop(0)
                applied[w_op.obj] = w_op.value
            obj = rng.choice(objects)
            ops.append(read(site, obj, applied.get(obj, 0), t))
    return History(ops)


def random_history(
    rng: random.Random,
    n_sites: int = 3,
    n_objects: int = 2,
    n_ops: int = 12,
    write_fraction: float = 0.4,
) -> History:
    """Unconstrained: reads return any value ever written to the object
    (or the initial value), so most draws violate even CC."""
    objects = [f"X{i}" for i in range(n_objects)]
    written: Dict[str, List[object]] = {obj: [] for obj in objects}
    ops: List[Operation] = []
    counter = [0]
    time = 0.0
    for _ in range(n_ops):
        time += rng.uniform(0.5, 2.0)
        site = rng.randrange(n_sites)
        obj = rng.choice(objects)
        if rng.random() < write_fraction or not any(written.values()):
            value = _unique_value(site, counter)
            written[obj].append(value)
            ops.append(write(site, obj, value, time))
        else:
            pool = written[obj] + [0]
            ops.append(read(site, obj, rng.choice(pool), time))
    return History(ops)
