"""Result types shared by all consistency checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.operations import Operation


@dataclass
class CheckResult:
    """Outcome of a consistency check.

    ``satisfied`` is the verdict.  When the criterion holds, ``witness``
    holds a serialization proving it (for the serial criteria) and
    ``site_witnesses`` the per-site serializations (for the causal
    criteria).  When it fails, ``violation`` is a human-readable reason —
    for the timed criteria this names the late read and its ``W_r``.
    ``states_explored`` is the branch nodes the constraint engine used: 0
    when the effective-time order or the recorded write order decided,
    1 or more when the write order failed and the engine decided.  ``unknown`` marks a
    budget-exhausted check: the search gave up, so ``satisfied`` is False
    but the criterion was *not* shown violated.
    """

    criterion: str
    satisfied: bool
    witness: Optional[List[Operation]] = None
    site_witnesses: Optional[Dict[int, List[Operation]]] = None
    violation: Optional[str] = None
    states_explored: int = 0
    parameters: Dict[str, float] = field(default_factory=dict)
    unknown: bool = False

    def __bool__(self) -> bool:
        return self.satisfied

    @property
    def verdict(self) -> Optional[bool]:
        """``satisfied``, or ``None`` when the check is ``unknown``."""
        return None if self.unknown else self.satisfied

    def __repr__(self) -> str:
        if self.unknown:
            verdict = "UNKNOWN"
        else:
            verdict = "SATISFIED" if self.satisfied else "VIOLATED"
        params = ", ".join(f"{k}={v:g}" for k, v in self.parameters.items())
        suffix = f" ({params})" if params else ""
        return f"<{self.criterion}{suffix}: {verdict}>"


class SearchBudgetExceeded(RuntimeError):
    """The serialization search exceeded its budget (the checking
    engine's branch nodes, or the transactional search's states).

    Deciding SC is NP-complete (footnote 2 of the paper cites
    Gharachorloo & Gibbons and Taylor), so the checkers carry an explicit
    budget instead of silently running forever.  Catching this means
    "unknown", not "violated".
    """

    def __init__(self, budget: int) -> None:
        super().__init__(
            f"serialization search exceeded its budget of {budget}; "
            "the history is too adversarial for exact checking"
        )
        self.budget = budget


def within_budget(criterion: str, check: Callable[[], CheckResult]) -> CheckResult:
    """``check()``, or an ``unknown`` result if its search ran out of budget."""
    try:
        return check()
    except SearchBudgetExceeded:
        return CheckResult(criterion, False, unknown=True)
