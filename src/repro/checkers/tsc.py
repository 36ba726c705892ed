"""Timed serial consistency (Definition 3 of the paper).

``H`` satisfies TSC(delta) iff there is a *timed* legal serialization of H
respecting every program order.  Two equivalent implementations:

* :func:`check_tsc` — the fast decomposed check.  Written values are
  unique, so the write each read returns is fixed by its value; whether a
  read is on time (``W_r`` empty, Definitions 1-2) is therefore a property
  of the history, independent of the chosen serialization.  Hence
  ``TSC(delta) <=> SC and all reads on time``, which is
  :func:`~repro.checkers.extensions.check_timed` over SC.
* :func:`check_tsc_direct` — the literal Definition-3 search: the SC
  backtracking engine with a read filter that refuses to schedule a read
  that would not occur on time given the writer it would read from *in the
  sequence being built*.

The test suite cross-validates the two on random histories.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.checkers.extensions import check_timed
from repro.checkers.result import CheckResult
from repro.checkers.sc import check_sc
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.timed import read_occurs_on_time


def check_tsc(
    history: History,
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
    method: str = "constraint",
) -> CheckResult:
    """Decide TSC(delta) under clock precision ``epsilon`` (decomposed)."""
    sc = partial(check_sc, budget=budget, method=method)
    return check_timed(history, sc, delta, epsilon, criterion="TSC")


def check_tsc_direct(
    history: History,
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> CheckResult:
    """Decide TSC(delta) by the literal Definition-3 search."""

    def on_time(read_op: Operation, writer: Optional[Operation]) -> bool:
        return read_occurs_on_time(history, read_op, delta, epsilon, writer)

    sc = check_sc(history, budget=budget, read_filter=on_time)
    return CheckResult(
        "TSC-direct",
        sc.satisfied,
        witness=sc.witness,
        violation=None
        if sc.satisfied
        else "no timed legal serialization respects all program orders",
        states_explored=sc.states_explored,
        parameters={"delta": delta, "epsilon": epsilon},
        stats=sc.stats,
    )
