"""Linearizability checking (Herlihy & Wing [20], Section 2 of the paper).

A history satisfies LIN iff there is a legal serialization that respects
the order induced by the operations' *effective times*.  When all effective
times are distinct there is exactly one candidate order — sort by time and
check legality.  Ties (simultaneous effective times) are resolved by
backtracking over the tied groups only.

When operations carry full ``[start, end]`` intervals,
:func:`check_interval_linearizability` implements the classical
interval-order version: a serialization must respect *definitely-precedes*
(``a.end < b.start``).  The effective-time version used throughout the
paper is the default.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.checkers.result import CheckResult
from repro.checkers.search import SearchStats, find_serialization
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import first_legality_violation


def check_lin(history: History, budget: Optional[int] = None) -> CheckResult:
    """Decide LIN for ``history`` (effective-time order)."""
    ops = sorted(history.operations, key=lambda op: op.time)
    stats = SearchStats(budget)

    # Group ties; backtrack only over permutations within a tied group.
    groups: List[List[Operation]] = []
    for op in ops:
        if groups and groups[-1][0].time == op.time:
            groups[-1].append(op)
        else:
            groups.append([op])

    if all(len(g) == 1 for g in groups):
        sequence = [g[0] for g in groups]
        stats.bump()
        bad = first_legality_violation(sequence, history.initial_value)
        if bad is None:
            return CheckResult(
                "LIN",
                True,
                witness=sequence,
                states_explored=stats.states,
                stats=stats,
            )
        return CheckResult(
            "LIN",
            False,
            violation=(
                f"{bad.label()} at T={bad.time:g} does not return the most "
                "recent value in real-time order"
            ),
            states_explored=stats.states,
            stats=stats,
        )

    witness = _search_with_ties(groups, history, stats)
    if witness is not None:
        return CheckResult(
            "LIN", True, witness=witness, states_explored=stats.states, stats=stats
        )
    return CheckResult(
        "LIN",
        False,
        violation="no legal serialization respects effective-time order "
        "(including tie permutations)",
        states_explored=stats.states,
        stats=stats,
    )


def _search_with_ties(
    groups: List[List[Operation]],
    history: History,
    stats: SearchStats,
) -> Optional[List[Operation]]:
    """DFS over per-group permutations, checking legality incrementally."""

    def dfs(group_idx: int, prefix: List[Operation], last_vals: Dict[str, object]):
        if group_idx == len(groups):
            return list(prefix)
        stats.bump()
        for perm in itertools.permutations(groups[group_idx]):
            vals = dict(last_vals)
            ok = True
            for op in perm:
                if op.is_write:
                    vals[op.obj] = op.value
                elif op.value != vals.get(op.obj, history.initial_value):
                    ok = False
                    break
            if not ok:
                continue
            prefix.extend(perm)
            result = dfs(group_idx + 1, prefix, vals)
            if result is not None:
                return result
            del prefix[len(prefix) - len(perm) :]
        return None

    return dfs(0, [], {})


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

    ops = list(history.operations)
    preds = {
        b: {a for a in ops if end_of(a) < start_of(b)}
        for b in ops
    }
    stats = SearchStats(budget)
    witness = find_serialization(
        ops, preds, history.initial_value, budget=budget, stats=stats
    )
    if witness is not None:
        return CheckResult(
            "LIN-interval",
            True,
            witness=witness,
            states_explored=stats.states,
            stats=stats,
        )
    return CheckResult(
        "LIN-interval",
        False,
        violation="no legal serialization respects the definitely-precedes "
        "order of the execution intervals",
        states_explored=stats.states,
        stats=stats,
    )
