"""Multi-seed summary statistics for the sweeps.

Simulation papers report means over independent replications with an
uncertainty estimate; these helpers aggregate per-seed result rows into
``mean ± stderr`` summaries without external dependencies.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; rejects empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


def stderr(values: Sequence[float]) -> float:
    """Standard error of the mean; 0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    return stddev(values) / math.sqrt(n)
