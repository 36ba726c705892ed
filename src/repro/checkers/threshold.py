"""Delta thresholds: where on Figure 4b's spectrum an execution sits.

Figure 4b shows TSC interpolating between LIN (delta = 0) and SC
(delta = infinity).  For a fixed execution the interesting quantity is the
*threshold* delta*: the smallest delta for which the execution satisfies
TSC (respectively TCC).  Because timedness decomposes (see
:mod:`repro.core.timed`), delta* equals ``min_timed_delta`` when the
untimed criterion (SC/CC) holds, and no delta works when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.checkers.cc import cc_given_sc, check_cc
from repro.checkers.result import within_budget
from repro.checkers.sc import check_sc
from repro.core.history import History
from repro.core.timed import min_timed_delta


@dataclass
class ThresholdReport:
    """Thresholds of one execution along the delta spectrum.

    ``tsc_threshold``/``tcc_threshold`` are the smallest delta satisfying
    the criterion, ``math.inf`` when no finite delta works because the
    untimed base criterion (SC/CC) already fails.  ``timed_threshold`` is
    the smallest delta making every read on time regardless of ordering.

    ``sc_holds``/``cc_holds`` are ``None`` when the corresponding search
    exhausted its budget — the base criterion is then *unknown*, not
    violated, and the matching threshold is ``math.nan``.
    """

    timed_threshold: float
    sc_holds: Optional[bool]
    cc_holds: Optional[bool]
    tsc_threshold: float
    tcc_threshold: float
    epsilon: float = 0.0

    @property
    def unknown(self) -> bool:
        """True when budget exhaustion left any base verdict undecided."""
        return self.sc_holds is None or self.cc_holds is None

    def satisfies_tsc(self, delta: float) -> Optional[bool]:
        if self.sc_holds is None:
            return None
        return self.sc_holds and delta >= self.tsc_threshold

    def satisfies_tcc(self, delta: float) -> Optional[bool]:
        if self.cc_holds is None:
            return None
        return self.cc_holds and delta >= self.tcc_threshold


def threshold_report(
    history: History,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> ThresholdReport:
    """Compute the full threshold report for one execution.

    SC is searched once; CC is taken from its witness when SC holds
    (:func:`~repro.checkers.cc.cc_given_sc`) and searched otherwise.
    Budget exhaustion in either base check surfaces as ``sc_holds`` /
    ``cc_holds`` of ``None`` (threshold ``math.nan``) instead of an
    exception.
    """
    timed_thr = min_timed_delta(history, epsilon)
    sc = within_budget("SC", lambda: check_sc(history, budget=budget))
    cc = within_budget("CC", lambda: cc_given_sc(history, sc, budget))

    def threshold_of(holds: Optional[bool]) -> float:
        if holds is None:
            return math.nan
        return timed_thr if holds else math.inf

    return ThresholdReport(
        timed_threshold=timed_thr,
        sc_holds=sc.verdict,
        cc_holds=cc.verdict,
        tsc_threshold=threshold_of(sc.verdict),
        tcc_threshold=threshold_of(cc.verdict),
        epsilon=epsilon,
    )


def tsc_threshold(
    history: History,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> float:
    """Smallest delta with TSC(delta); ``math.inf`` if SC fails."""
    if not check_sc(history, budget=budget).satisfied:
        return math.inf
    return min_timed_delta(history, epsilon)


def tcc_threshold(
    history: History,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> float:
    """Smallest delta with TCC(delta); ``math.inf`` if CC fails."""
    if not check_cc(history, budget=budget).satisfied:
        return math.inf
    return min_timed_delta(history, epsilon)


def delta_spectrum(
    history: History,
    deltas: Optional[list] = None,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> dict:
    """Evaluate TSC/TCC satisfaction across a range of deltas.

    Returns ``{delta: (tsc_ok, tcc_ok)}`` — the Figure 4b sweep for one
    execution.  The default grid brackets the execution's own threshold.
    An entry is ``None`` (unknown) when the base check ran out of budget.
    """
    report = threshold_report(history, epsilon, budget)
    if deltas is None:
        thr = report.timed_threshold
        if thr == 0.0 or math.isinf(thr):
            deltas = [0.0, 1.0, 10.0, 100.0]
        else:
            deltas = sorted(
                {0.0, thr / 2, thr * 0.99, thr, thr * 1.01, thr * 2, thr * 10}
            )
    return {
        d: (report.satisfies_tsc(d), report.satisfies_tcc(d)) for d in deltas
    }
