"""Sequential consistency checking (Lamport [25], Section 2 of the paper).

``H`` satisfies SC iff there is a legal serialization of all of ``H`` that
respects every site's program order.  Deciding this is NP-complete (paper
footnote 2).  The effective-time order is tried first (it respects
program order, so when it is legal it is the witness); otherwise
:func:`~repro.checkers.constraint.decide` tries the recorded write order
and then the constraint engine.
"""

from __future__ import annotations

from typing import Optional

from repro.checkers.constraint import decide
from repro.checkers.result import CheckResult
from repro.core.history import History
from repro.core.serialization import time_order_witness


def check_sc(history: History, budget: Optional[int] = None) -> CheckResult:
    """Decide SC for ``history``."""
    witness = time_order_witness(history)
    if witness is not None:
        return CheckResult("SC", True, witness=witness)
    return decide(
        "SC",
        history,
        history.operations,
        history.immediate_program_order(),
        "no legal serialization respects all program orders",
        budget,
    )
