"""Timed serial consistency (Definition 3 of the paper).

``H`` satisfies TSC(delta) iff there is a *timed* legal serialization of H
respecting every program order.  Written values are unique, so the write
each read returns is fixed by its value; whether a read is on time
(``W_r`` empty, Definitions 1-2) is therefore a property of the history,
independent of the chosen serialization.  Hence
``TSC(delta) <=> SC and all reads on time``, which is
:func:`~repro.checkers.extensions.check_timed` over SC.  The test suite
cross-validates this against the literal Definition-3 search (a
serialization search that refuses to schedule a late read).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.checkers.extensions import check_timed
from repro.checkers.result import CheckResult
from repro.checkers.sc import check_sc
from repro.core.history import History


def check_tsc(
    history: History,
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> CheckResult:
    """Decide TSC(delta) under clock precision ``epsilon``."""
    sc = partial(check_sc, budget=budget)
    return check_timed(history, sc, delta, epsilon, criterion="TSC")
