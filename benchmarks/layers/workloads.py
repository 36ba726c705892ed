"""The four workloads and the benchmark's own seeded traffic generator.

Traffic is generated here, not by ``repro.load``, so a refactor of the
load harness cannot change what the benchmark sends.  A site's traffic is
a list of *steps*; a step is ``(write_keys, read_key)``: the site issues
the writes concurrently (one write is the ordinary closed-loop case, a
wave of eight is ``write_durable``), waits for all of them, then issues
the read if there is one and waits for it.  One step in flight per site
is what makes the loop closed.

The step list is a pure function of ``(seed, site)``: each site draws
from ``random.Random(f"{seed}:{site}")`` over keys ``k0000..k1023`` with
Zipf(0.99) popularity.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

N_KEYS = 1024
ZIPF_THETA = 0.99
KEYS = [f"k{i:04d}" for i in range(N_KEYS)]
_CUMULATIVE = list(itertools.accumulate(
    1.0 / (rank + 1) ** ZIPF_THETA for rank in range(N_KEYS)
))

#: Ops in the TSC verification pass, all sites together.  The constraint
#: checker is super-linear (600 ops 0.07 s, 2 900 ops 26 s), so this
#: stays small; the cheap per-read gates cover the full measured trace.
VERIFY_OPS = 600

Step = Tuple[Tuple[str, ...], Optional[str]]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one stack shape.  ``measured`` and
    ``warmup`` count steps per site; ``wave`` > 0 makes every step a
    wave of that many concurrent writes followed by one read."""

    name: str
    why: str
    delta: float
    sites: int
    servers: int
    write_share: float
    measured: int
    warmup: int
    wave: int = 0
    store: bool = False
    ring: bool = False
    #: The operation types whose own latency this workload is about.
    about: Tuple[str, ...] = ("read",)

    @property
    def ops_per_step(self) -> int:
        return self.wave + 1 if self.wave else 1


WORKLOADS = (
    Workload(
        name="read_cached",
        why="delta 1 s: most reads are cache hits with no message, so the "
            "cache engine and harness dominate; wire and WAL changes must "
            "show no change here",
        delta=1.0, sites=2, servers=1, write_share=0.002,
        measured=45_000, warmup=2_000,
    ),
    Workload(
        name="read_validate",
        why="same stream at delta 2 ms: rule 3 turns most reads into "
            "validate round trips of the smallest frames, so per-frame cost "
            "and the context sweep dominate",
        delta=0.002, sites=2, servers=1, write_share=0.002,
        measured=12_000, warmup=2_000,
    ),
    Workload(
        name="write_durable",
        why="waves of 8 concurrent writes then a read against a WAL with "
            "fsync=always: the store is the largest line and log-before-ack "
            "is checked by the durability gate",
        delta=0.05, sites=2, servers=1, write_share=8 / 9,
        measured=800, warmup=50, wave=8, store=True, about=("write",),
    ),
    Workload(
        name="ring_mixed",
        why="one RingRouter over 2 replicated servers, 30% writes: every "
            "write fans out to both devices and every read is routed, so "
            "ring self time and doubled frames dominate",
        delta=0.05, sites=1, servers=2, write_share=0.3,
        measured=21_000, warmup=2_000, ring=True, about=("read", "write"),
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def _draw_key(rng: random.Random) -> str:
    return KEYS[bisect.bisect_left(_CUMULATIVE, rng.random() * _CUMULATIVE[-1])]


def site_steps(spec: Workload, seed: int, site: int, count: int) -> List[Step]:
    """The first ``count`` steps of ``site``'s traffic for ``seed``."""
    rng = random.Random(f"{seed}:{site}")
    steps: List[Step] = []
    # Writes are spaced evenly at ``write_share`` (from a random phase), not
    # drawn per step.  On ``read_cached`` one write empties its site's whole
    # cache, which costs about as much as the 500 reads until the next one;
    # drawn independently, the 50-odd writes of a 3 s window vary by 14 %
    # from seed to seed and the throughput follows them.
    due = rng.random()
    for _ in range(count):
        due += spec.write_share
        if spec.wave:
            keys: List[str] = []
            while len(keys) < spec.wave:
                key = _draw_key(rng)
                if key not in keys:  # a wave writes distinct keys: redraw
                    keys.append(key)
            steps.append((tuple(keys), _draw_key(rng)))
        elif due >= 1.0:
            due -= 1.0
            steps.append(((_draw_key(rng),), None))
        else:
            steps.append(((), _draw_key(rng)))
    return steps
