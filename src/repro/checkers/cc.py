"""Causal consistency checking (Ahamad et al. [2], Section 2 of the paper).

``H`` satisfies CC iff for every site ``i`` there is a legal serialization
of ``H_{i+w}`` (site ``i``'s operations plus all writes) that respects the
causality relation ``->``.  Each site is checked independently; the
witness per site is returned, mirroring Figure 6(b) of the paper.

An SC witness (a legal effective-time order is one) restricted to each
``H_{i+w}`` is that site's witness (docs/THEORY.md, Result 4); otherwise
the engine decides site by site, fed the causal pairs in topological order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.checkers.constraint import decide
from repro.checkers.result import CheckResult
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import time_order_witness


def restrict_to_sites(
    history: History, order: Sequence[Operation]
) -> Dict[int, List[Operation]]:
    """An SC witness ``order`` of ``history`` restricted to every site's
    ``H_{i+w}``: the sites' CC witnesses."""
    return {
        site: [op for op in order if op.is_write or op.site == site]
        for site in history.sites
    }


def check_cc(history: History, budget: Optional[int] = None) -> CheckResult:
    """Decide CC for ``history``."""
    order = time_order_witness(history)
    if order is not None:
        return CheckResult(
            "CC", True, site_witnesses=restrict_to_sites(history, order)
        )
    closure = history.causal_predecessors()
    site_witnesses: Dict[int, List[Operation]] = {}
    nodes = 0
    for site in history.sites:
        ops = history.site_plus_writes(site)
        # Fewer causal predecessors first: a topological order.
        topo = sorted(ops, key=lambda op: len(closure[op]))
        place = {op: i for i, op in enumerate(topo)}
        # Every causal pair, each operation after its predecessors and
        # those latest first: the first edge into an operation then
        # brings most of its ancestors, and the rest add nothing.
        edges = [
            (p, op)
            for op in topo
            for p in sorted((p for p in closure[op] if p in place),
                            key=place.__getitem__, reverse=True)
        ]
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
