"""Linearizability checking (Herlihy & Wing [20], Section 2 of the paper).

A history satisfies LIN iff there is a legal serialization that respects
the order induced by the operations' *effective times*.  When all effective
times are distinct there is exactly one candidate order — sort by time and
check legality.  Ties (simultaneous effective times) go to the constraint
engine, with every operation of a tie group ordered before every
operation of the next group.

When operations carry full ``[start, end]`` intervals,
:func:`check_interval_linearizability` implements the classical
interval-order version: a serialization must respect *definitely-precedes*
(``a.end < b.start``).  The effective-time version used throughout the
paper is the default.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Optional

from repro.checkers.constraint import decide
from repro.checkers.result import CheckResult
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import first_legality_violation, time_order_witness


def check_lin(history: History, budget: Optional[int] = None) -> CheckResult:
    """Decide LIN for ``history`` (effective-time order)."""
    witness = time_order_witness(history)
    if witness is not None:
        return CheckResult("LIN", True, witness=witness)
    ops = sorted(history.operations, key=attrgetter("time"))
    groups = [list(g) for _, g in groupby(ops, key=attrgetter("time"))]
    if len(groups) == len(ops):
        bad = first_legality_violation(ops, history.initial_value)
        return CheckResult(
            "LIN",
            False,
            violation=(
                f"{bad.label()} at T={bad.time:g} does not return the most "
                "recent value in real-time order"
            ),
        )
    edges = [(a, b) for g, nxt in zip(groups, groups[1:]) for a in g for b in nxt]
    return decide(
        "LIN",
        history,
        ops,
        edges,
        "no legal serialization respects effective-time order, even "
        "permuting ties",
        budget,
    )


def check_interval_linearizability(
    history: History, budget: Optional[int] = None
) -> CheckResult:
    """LIN over execution intervals: respect ``a.end < b.start``.

    Operations missing ``start``/``end`` use their effective time as a
    degenerate interval.  This is strictly weaker than effective-time LIN
    (more serializations are allowed), matching Herlihy & Wing's original
    definition when real intervals are known.
    """

    def start_of(op: Operation) -> float:
        return op.time if op.start is None else op.start

    def end_of(op: Operation) -> float:
        return op.time if op.end is None else op.end

    witness = time_order_witness(history)
    if witness is not None:
        return CheckResult("LIN-interval", True, witness=witness)
    ops = history.operations
    edges = [(a, b) for a in ops for b in ops if end_of(a) < start_of(b)]
    return decide(
        "LIN-interval",
        history,
        ops,
        edges,
        "no legal serialization respects the definitely-precedes order of "
        "the execution intervals",
        budget,
    )
