"""The xi maps of Section 5.4: logical timestamps -> real numbers.

Definition 5 of the paper: a map ``xi`` from logical timestamps to the reals
such that

* ``t == u``  implies ``xi(t) == xi(u)``, and
* ``t <  u``  implies ``xi(t) <  xi(u)``  (strict monotonicity in the
  happened-before order of the clock).

Informally ``xi(t)`` measures "the amount of global activity of the system
that is known" at ``t``.  Concurrent timestamps may map anywhere, which is
what lets a purely logical system *approximate* timed consistency: a write
at logical time ``t`` must be visible at site ``i`` before
``xi(t_i) - xi(t) > delta`` (Definition 6).

Two concrete maps from the paper, for vector clocks:

* :class:`SumXi` — ``xi(t) = sum(t[i])``: the number of global events known
  at ``t`` (the paper's <35, 4, 0, 72> |-> 111 example).
* :class:`EuclideanXi` — ``xi(t) = sqrt(sum(t[i]^2))``: the length of the
  vector in R^N, the geometric interpretation of Figure 7.

Both extend to any timestamp exposing a ``sum()``/``entries`` view; a
generic :class:`WeightedXi` and the :func:`validate_xi` property checker
(used by the Figure 7 bench and the property tests) are also provided.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Iterable, Optional, Sequence

from repro.clocks.base import LogicalTimestamp, Ordering
from repro.clocks.vector import VectorTimestamp


class XiMap(ABC):
    """A Definition-5 map from logical timestamps to real numbers."""

    @abstractmethod
    def __call__(self, timestamp: LogicalTimestamp) -> float:
        """Return ``xi(timestamp)``."""

    @property
    def name(self) -> str:
        return type(self).__name__


def _vector_entries(timestamp: LogicalTimestamp) -> Sequence[int]:
    """Extract integer entries from a vector-like timestamp."""
    entries = getattr(timestamp, "entries", None)
    if entries is None:
        levels = getattr(timestamp, "levels", None)
        if levels is None:
            raise TypeError(
                f"{type(timestamp).__name__} does not expose vector entries"
            )
        return levels
    return entries


class SumXi(XiMap):
    """``xi(t) = sum_i t[i]`` — the number of known global events.

    For a vector timestamp this counts every event the timestamp is aware
    of; the paper's example: a site at logical time <35, 4, 0, 72> is aware
    of 111 global events.
    """

    def __call__(self, timestamp: LogicalTimestamp) -> float:
        return float(sum(_vector_entries(timestamp)))


class EuclideanXi(XiMap):
    """``xi(t) = ||t||_2`` — the length of the vector in R^N (Figure 7).

    Strictly monotone in vector-clock dominance: if ``t < u`` component-wise
    with at least one strict entry, the squared length strictly grows.
    The paper's Figure 7 examples: xi(<3,4>) = 5, xi(<3,2>) = 3.61,
    xi(<2,4>) = 4.47.
    """

    def __call__(self, timestamp: LogicalTimestamp) -> float:
        return math.sqrt(sum(e * e for e in _vector_entries(timestamp)))


class WeightedXi(XiMap):
    """``xi(t) = sum_i w_i * t[i]`` with strictly positive weights.

    Strictly positive weights keep Definition 5 satisfied; weights can model
    sites whose events represent different amounts of "global activity"
    (e.g. a site that batches many writes per event).
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("weights must be non-empty")
        if any(w <= 0 for w in weights):
            raise ValueError(f"weights must be strictly positive: {weights}")
        self.weights = tuple(float(w) for w in weights)

    def __call__(self, timestamp: LogicalTimestamp) -> float:
        entries = _vector_entries(timestamp)
        if len(entries) != len(self.weights):
            raise ValueError(
                f"timestamp width {len(entries)} != weights width {len(self.weights)}"
            )
        return sum(w * e for w, e in zip(self.weights, entries))


class PNormXi(XiMap):
    """``xi(t) = ||t||_p`` for ``p >= 1`` — generalizes Sum (p=1) and
    Euclidean (p=2); ``p = inf`` (max entry) is monotone but only weakly, so
    it is rejected here."""

    def __init__(self, p: float) -> None:
        if not (1 <= p < math.inf):
            raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
        self.p = float(p)

    def __call__(self, timestamp: LogicalTimestamp) -> float:
        entries = _vector_entries(timestamp)
        return sum(abs(e) ** self.p for e in entries) ** (1.0 / self.p)


def validate_xi(
    xi: XiMap,
    timestamps: Iterable[LogicalTimestamp],
) -> Optional[str]:
    """Check Definition 5 on a finite set of timestamps.

    Returns ``None`` when the map satisfies both Definition-5 properties on
    every pair drawn from ``timestamps``, or a human-readable description of
    the first violation found.
    """
    stamps = list(timestamps)
    for t, u in itertools.combinations(stamps, 2):
        order = t.compare(u)
        xt, xu = xi(t), xi(u)
        if order is Ordering.EQUAL and xt != xu:
            return f"xi not well-defined: {t!r} == {u!r} but xi {xt} != {xu}"
        if order is Ordering.BEFORE and not xt < xu:
            return f"xi not monotone: {t!r} < {u!r} but xi {xt} >= {xu}"
        if order is Ordering.AFTER and not xu < xt:
            return f"xi not monotone: {u!r} < {t!r} but xi {xu} >= {xt}"
    return None


def figure7_examples() -> dict:
    """The worked xi values of Figure 7, for the bench and the docs."""
    t_34 = VectorTimestamp((3, 4))
    t_32 = VectorTimestamp((3, 2))
    t_24 = VectorTimestamp((2, 4))
    euclid = EuclideanXi()
    return {
        "<3,4>": euclid(t_34),  # 5.0
        "<3,2>": euclid(t_32),  # ~3.61
        "<2,4>": euclid(t_24),  # ~4.47
    }
