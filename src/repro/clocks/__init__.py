"""Clock substrates for timed consistency.

Physical clocks (perfect / skewed / drifting / epsilon-synchronized) back
Definitions 1-2; logical clocks (Lamport, vector, plausible) back the causal
protocols of Section 5.3 and the logical-clock approximation of timed
consistency in Section 5.4 via the xi maps.
"""

from repro.clocks.base import (
    LogicalClock,
    LogicalTimestamp,
    Ordering,
    compare_physical,
)
from repro.clocks.lamport import LamportClock, ScalarTimestamp
from repro.clocks.physical import (
    DriftingClock,
    ManualTime,
    PerfectClock,
    PhysicalClock,
    SynchronizedClock,
    TimeServer,
)
from repro.clocks.rebase import RebasedClock
from repro.clocks.plausible import (
    CombClock,
    CombTimestamp,
    KLamportClock,
    KLamportTimestamp,
    REVClock,
    REVTimestamp,
)
from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.clocks.xi import (
    EuclideanXi,
    PNormXi,
    SumXi,
    WeightedXi,
    XiMap,
    figure7_examples,
    validate_xi,
)

__all__ = [
    "CombClock",
    "CombTimestamp",
    "DriftingClock",
    "EuclideanXi",
    "KLamportClock",
    "KLamportTimestamp",
    "LamportClock",
    "LogicalClock",
    "LogicalTimestamp",
    "ManualTime",
    "Ordering",
    "PNormXi",
    "PerfectClock",
    "PhysicalClock",
    "REVClock",
    "REVTimestamp",
    "RebasedClock",
    "ScalarTimestamp",
    "SumXi",
    "SynchronizedClock",
    "TimeServer",
    "VectorClock",
    "VectorTimestamp",
    "WeightedXi",
    "XiMap",
    "compare_physical",
    "figure7_examples",
    "validate_xi",
]
