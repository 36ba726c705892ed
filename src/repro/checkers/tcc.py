"""Timed causal consistency (Definition 4 of the paper).

``H`` satisfies TCC(delta) iff for every site ``i`` there is a *timed*
legal serialization of ``H_{i+w}`` that respects causal order.  As with
TSC, the unique-values assumption decomposes the check::

    TCC(delta)  <=>  CC  and  every read on time

which is :func:`~repro.checkers.extensions.check_timed` over CC.  The
tests cross-validate it against the literal Definition-4 per-site search.

:func:`check_tcc_logical` implements the Section 5.4 variant: timedness is
judged by Definition 6 through a xi map over logical timestamps, so the
check needs no physical clocks at all.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.checkers.cc import check_cc
from repro.checkers.extensions import check_timed
from repro.checkers.result import CheckResult
from repro.clocks.xi import XiMap
from repro.core.history import History


def check_tcc(
    history: History,
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> CheckResult:
    """Decide TCC(delta) under clock precision ``epsilon``."""
    cc = partial(check_cc, budget=budget)
    return check_timed(history, cc, delta, epsilon, criterion="TCC")


def check_tcc_logical(
    history: History,
    delta: float,
    xi: XiMap,
    budget: Optional[int] = None,
) -> CheckResult:
    """Decide the Section 5.4 logical-clock TCC: CC plus Definition-6
    timedness under ``xi`` (every operation must carry ``ltime``)."""
    cc = partial(check_cc, budget=budget)
    return check_timed(history, cc, delta, criterion="TCC-logical", xi=xi)
