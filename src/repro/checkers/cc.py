"""Causal consistency checking (Ahamad et al. [2], Section 2 of the paper).

``H`` satisfies CC iff for every site ``i`` there is a legal serialization
of ``H_{i+w}`` (site ``i``'s operations plus all writes) that respects the
causality relation ``->``.  Each site is checked independently; the
witness per site is returned, mirroring Figure 6(b) of the paper.

Like :mod:`repro.checkers.sc`, two engines: constraint saturation
(default, scalable) and memoized backtracking (cross-validation and the
timed read-filter variant).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.checkers.result import CheckResult
from repro.checkers.search import (
    ReadFilter,
    SearchStats,
    find_serialization,
)
from repro.core.history import History
from repro.core.operations import Operation


def check_cc(
    history: History,
    budget: Optional[int] = None,
    read_filter: Optional[ReadFilter] = None,
    method: str = "constraint",
) -> CheckResult:
    """Decide CC for ``history``.

    ``read_filter`` (used by the direct TCC search) forces the backtracking
    engine regardless of ``method``.
    """
    if read_filter is None and method == "constraint":
        from repro.checkers.constraint import check_cc_constraint

        return check_cc_constraint(history, budget)
    closure = history.causal_predecessors()
    stats = SearchStats(budget)
    site_witnesses: Dict[int, List[Operation]] = {}
    for site in history.sites:
        ops = history.site_plus_writes(site)
        opset = set(ops)
        preds = {op: closure[op] & opset for op in ops}
        witness = find_serialization(
            ops,
            preds,
            history.initial_value,
            read_filter=read_filter,
            budget=budget,
            stats=stats,
        )
        if witness is None:
            return CheckResult(
                "CC",
                False,
                violation=(
                    f"no legal serialization of H_({site}+w) respects "
                    "causal order"
                ),
                states_explored=stats.states,
                stats=stats,
            )
        site_witnesses[site] = witness
    return CheckResult(
        "CC",
        True,
        site_witnesses=site_witnesses,
        states_explored=stats.states,
        stats=stats,
    )
