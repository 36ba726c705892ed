"""Causal consistency checking (Ahamad et al. [2], Section 2 of the paper).

``H`` satisfies CC iff for every site ``i`` there is a legal serialization
of ``H_{i+w}`` (site ``i``'s operations plus all writes) that respects the
causality relation ``->``.  Each site is checked independently; the
witness per site is returned, mirroring Figure 6(b) of the paper.

An SC witness (a legal effective-time order is one) restricted to each
``H_{i+w}`` is that site's witness (docs/THEORY.md, Result 4): that is
:func:`cc_given_sc`, which searches nothing once SC holds.  Otherwise
each site is decided over all of ``H`` with SC's program-order edges,
placing only its own reads: the others keep their reads-from edges, so
causal order passes through them and no closure is built (Result 5).
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
        return cc_given_sc(history, CheckResult("SC", True, witness=order))
    program_order = history.immediate_program_order()
    site_witnesses: Dict[int, List[Operation]] = {}
    nodes = 0
    for site in history.sites:
        ops = history.site_plus_writes(site)
        ops += [op for op in history.operations
                if op.is_read and op.site != site]
        result = decide(
            "CC",
            history,
            ops,
            program_order,
            f"no legal serialization of H_({site}+w) respects causal order",
            budget,
            site,
        )
        nodes += result.states_explored
        if not result.satisfied:
            result.states_explored = nodes
            return result
        site_witnesses[site] = [
            op for op in result.witness if op.is_write or op.site == site
        ]
    return CheckResult(
        "CC", True, site_witnesses=site_witnesses, states_explored=nodes
    )


def cc_given_sc(
    history: History, sc: CheckResult, budget: Optional[int] = None
) -> CheckResult:
    """CC for ``history`` given SC's result on it: when SC holds, each
    site's witness is SC's restricted to ``H_{i+w}`` (Figure 4a,
    docs/THEORY.md Result 4), with no search and no branch nodes;
    otherwise :func:`check_cc`."""
    if not sc.satisfied:
        return check_cc(history, budget)
    return CheckResult("CC", True, site_witnesses={
        site: [op for op in sc.witness if op.is_write or op.site == site]
        for site in history.sites
    })
