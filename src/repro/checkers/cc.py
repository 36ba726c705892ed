"""Causal consistency checking (Ahamad et al. [2], Section 2 of the paper).

``H`` satisfies CC iff for every site ``i`` there is a legal serialization
of ``H_{i+w}`` (site ``i``'s operations plus all writes) that respects the
causality relation ``->``.  Each site is checked independently; the
witness per site is returned, mirroring Figure 6(b) of the paper.

A legal effective-time order respects causality, so when there is one,
each site's witness is that order restricted to ``H_{i+w}``; otherwise
the constraint engine decides site by site.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.checkers.constraint import decide
from repro.checkers.result import CheckResult
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import time_order_witness


def check_cc(history: History, budget: Optional[int] = None) -> CheckResult:
    """Decide CC for ``history``."""
    order = time_order_witness(history)
    if order is not None:
        return CheckResult("CC", True, site_witnesses={
            site: [op for op in order if op.is_write or op.site == site]
            for site in history.sites
        })
    closure = history.causal_predecessors()
    site_witnesses: Dict[int, List[Operation]] = {}
    nodes = 0
    for site in history.sites:
        ops = history.site_plus_writes(site)
        opset = set(ops)
        edges = [(p, op) for op in ops for p in closure[op] if p in opset]
        result = decide(
            "CC",
            history,
            ops,
            edges,
            f"no legal serialization of H_({site}+w) respects causal order",
            budget,
        )
        nodes += result.states_explored
        if not result.satisfied:
            result.states_explored = nodes
            return result
        site_witnesses[site] = result.witness
    return CheckResult(
        "CC", True, site_witnesses=site_witnesses, states_explored=nodes
    )
