"""Sequential consistency checking (Lamport [25], Section 2 of the paper).

``H`` satisfies SC iff there is a legal serialization of all of ``H`` that
respects every site's program order.  Deciding this is NP-complete (paper
footnote 2).  Two exact engines are provided:

* ``method="constraint"`` (default) — constraint saturation over a
  reachability matrix (:mod:`repro.checkers.constraint`): near-polynomial
  on protocol traces, scales to thousands of operations;
* ``method="search"`` — memoized backtracking
  (:mod:`repro.checkers.search`): simple and independent, used for
  cross-validation and for the timed read-filter variants.
"""

from __future__ import annotations

from typing import Optional

from repro.checkers.result import CheckResult
from repro.checkers.search import (
    ReadFilter,
    SearchStats,
    find_site_ordered_serialization,
)
from repro.core.history import History


def check_sc(
    history: History,
    budget: Optional[int] = None,
    read_filter: Optional[ReadFilter] = None,
    method: str = "constraint",
) -> CheckResult:
    """Decide SC for ``history``.

    ``read_filter`` (used by the direct TSC search) forces the backtracking
    engine regardless of ``method``.
    """
    if read_filter is None and method == "constraint":
        from repro.checkers.constraint import check_sc_constraint

        return check_sc_constraint(history, budget)
    site_sequences = {site: history.site_ops(site) for site in history.sites}
    stats = SearchStats(budget)
    witness = find_site_ordered_serialization(
        site_sequences,
        history.initial_value,
        read_filter=read_filter,
        budget=budget,
        stats=stats,
    )
    if witness is not None:
        return CheckResult(
            "SC",
            True,
            witness=witness,
            states_explored=stats.states,
            stats=stats,
        )
    return CheckResult(
        "SC",
        False,
        violation="no legal serialization of H respects all program orders",
        states_explored=stats.states,
        stats=stats,
    )
