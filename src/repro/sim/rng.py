"""Seeded randomness for experiments.

Every stochastic component draws from its own named stream derived from a
single experiment seed, so adding a new component never perturbs the draws
of existing ones — a standard discipline for reproducible simulation
studies.

Also provides the distribution samplers the workloads need (exponential
inter-arrival times, Zipf object popularity, log-normal latencies) without
depending on numpy, so the core library stays dependency-free.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Dict, List


class RngRegistry:
    """A family of independent named random streams under one seed.

    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("workload")
    >>> b = rngs.stream("network")
    >>> a is rngs.stream("workload")
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        if name not in self._streams:
            # Stable derivation: hash the name through Random itself.
            derived = random.Random(f"{self.seed}:{name}").getrandbits(64)
            self._streams[name] = random.Random(derived)
        return self._streams[name]


class ZipfSampler:
    """Zipf-distributed ranks over ``n`` items with exponent ``alpha``.

    P(rank k) proportional to ``1 / k**alpha`` for k = 1..n.  Sampling is
    by inverse CDF over the precomputed cumulative weights (O(log n) per
    draw).  Web object popularity is famously Zipf-like, which is all the
    web-cache experiments need (see DESIGN.md's substitution table).
    """

    def __init__(self, n: int, alpha: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = [1.0 / (k**alpha) for k in range(1, n + 1)]
        total = 0.0
        self._cdf: List[float] = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total

    def sample(self) -> int:
        """Draw a 0-based item index (0 is the most popular)."""
        u = self._rng.random() * self._total
        return bisect.bisect_left(self._cdf, u)


def exponential(rng: random.Random, rate: float) -> float:
    """An exponential inter-arrival time with the given rate (mean 1/rate)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return rng.expovariate(rate)


def lognormal(rng: random.Random, median: float, sigma: float) -> float:
    """A log-normal sample parameterized by its median (heavy-tailed
    latencies and page-modification intervals)."""
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    return median * math.exp(rng.gauss(0.0, sigma))


def bounded(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into [low, high]."""
    return max(low, min(high, value))
