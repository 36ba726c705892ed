"""The consistency hierarchy of Figure 4a, checked empirically.

The paper proves (as execution sets, for any fixed delta):

    LIN  subset-of  TSC  subset-of  SC  subset-of  CC
    TCC  subset-of  CC
    TCC  intersect  SC  ==  TSC

:func:`classify` evaluates all five criteria on one execution;
:func:`hierarchy_violations` returns every containment broken by a
classification (always empty if the checkers are correct — this is both a
test invariant and the Figure 4a bench).  :func:`judge` is the verdict
of a recorded run: it searches SC once and takes CC from that search
wherever Figure 4a allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.checkers.cc import cc_given_sc, check_cc
from repro.checkers.extensions import check_timed
from repro.checkers.lin import check_lin
from repro.checkers.result import CheckResult, within_budget
from repro.checkers.sc import check_sc
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.timed import late_reads


class Judgement(NamedTuple):
    """What :func:`judge` says about one recorded execution."""

    tsc: CheckResult
    tcc: CheckResult
    sc: CheckResult
    late_reads: List[Operation]


def judge(history: History, delta: float, epsilon: float) -> Judgement:
    """Offline TSC, TCC and SC verdicts plus the reads that are not on
    time (Definitions 1-2), all at the same delta and epsilon.  A read is
    judged at its recorded time, the end of its interval.  One SC search
    decides all three (Figure 4a, docs/THEORY.md Result 4): CC is searched
    for only when SC fails (a derived TCC reports no branch nodes)."""
    sc = check_sc(history)
    return Judgement(
        tsc=check_timed(history, lambda _: sc, delta, epsilon, criterion="TSC"),
        tcc=check_timed(history, lambda h: cc_given_sc(h, sc), delta, epsilon,
                        criterion="TCC"),
        sc=sc,
        late_reads=late_reads(history, delta, epsilon),
    )


@dataclass(frozen=True)
class Classification:
    """Verdicts of the five criteria on one execution for one delta.

    A verdict of ``None`` means the check exhausted its search budget —
    unknown, not violated.  :meth:`unknown` tells whether any verdict is
    undecided.
    """

    lin: Optional[bool]
    sc: Optional[bool]
    cc: Optional[bool]
    tsc: Optional[bool]
    tcc: Optional[bool]
    delta: float
    epsilon: float = 0.0

    def unknown(self) -> bool:
        return any(
            v is None for v in (self.lin, self.sc, self.cc, self.tsc, self.tcc)
        )

    def region(self) -> str:
        """A short label for the Venn region of Figure 4a this falls in."""
        tags = []
        undecided = []
        for name, ok in (
            ("LIN", self.lin),
            ("TSC", self.tsc),
            ("SC", self.sc),
            ("TCC", self.tcc),
            ("CC", self.cc),
        ):
            if ok:
                tags.append(name)
            elif ok is None:
                undecided.append(name)
        label = "+".join(tags) if tags else "none"
        if undecided:
            label += " (unknown: " + "+".join(undecided) + ")"
        return label


def classify(
    history: History,
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> Classification:
    """Evaluate LIN, SC, CC, TSC(delta), TCC(delta) on one execution.

    SC and CC are searched once each, independently of one another, so
    the SC-in-CC containment stays an observation; TSC and TCC are those
    results through :func:`~repro.checkers.check_timed`.  A criterion
    whose search exhausts ``budget`` is recorded as ``None`` (unknown)
    instead of raising, unless a late read already decides it.
    """
    lin = within_budget("LIN", lambda: check_lin(history, budget=budget))
    sc = within_budget("SC", lambda: check_sc(history, budget=budget))
    cc = within_budget("CC", lambda: check_cc(history, budget=budget))
    return Classification(
        lin=lin.verdict,
        sc=sc.verdict,
        cc=cc.verdict,
        tsc=check_timed(history, lambda _: sc, delta, epsilon).verdict,
        tcc=check_timed(history, lambda _: cc, delta, epsilon).verdict,
        delta=delta,
        epsilon=epsilon,
    )


#: The containments of Figure 4a, as (subset, superset) criterion names.
CONTAINMENTS = [
    ("lin", "tsc"),
    ("tsc", "sc"),
    ("sc", "cc"),
    ("tcc", "cc"),
    ("lin", "sc"),
    ("lin", "cc"),
    ("tsc", "cc"),
    ("tsc", "tcc"),  # TSC = TCC intersect SC, so TSC subset-of TCC
]


def hierarchy_violations(classification: Classification) -> List[str]:
    """Names of Figure 4a containments this classification violates.

    Also checks the identity ``TSC == TCC and SC``.  Empty list == the
    execution is consistent with the paper's hierarchy.

    Note the LIN containments only hold for Definition-1 timedness
    (epsilon == 0); with epsilon > 0 LIN remains defined on true effective
    times while TSC weakens, so LIN subset-of TSC still holds — a larger
    epsilon only enlarges TSC.
    """
    verdicts: Dict[str, Optional[bool]] = {
        "lin": classification.lin,
        "sc": classification.sc,
        "cc": classification.cc,
        "tsc": classification.tsc,
        "tcc": classification.tcc,
    }
    out: List[str] = []
    for small, big in CONTAINMENTS:
        if verdicts[small] is None or verdicts[big] is None:
            continue  # undecided verdicts cannot witness a violation
        if verdicts[small] and not verdicts[big]:
            out.append(f"{small.upper()} holds but {big.upper()} does not")
    if all(verdicts[name] is not None for name in ("tcc", "sc", "tsc")):
        if (verdicts["tcc"] and verdicts["sc"]) != verdicts["tsc"]:
            out.append("TSC != (TCC and SC)")
    return out


def census(
    histories: Iterable[History],
    delta: float,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
) -> Dict[str, int]:
    """Count how many executions land in each Figure 4a region, plus any
    hierarchy violations (expected 0) — the bench prints this table.
    Executions with a budget-exhausted (unknown) verdict are counted under
    ``__budget_unknown__``."""
    counts: Dict[str, int] = {}
    violations = 0
    unknowns = 0
    for history in histories:
        cls = classify(history, delta, epsilon, budget)
        counts[cls.region()] = counts.get(cls.region(), 0) + 1
        if cls.unknown():
            unknowns += 1
        if hierarchy_violations(cls):
            violations += 1
    counts["__hierarchy_violations__"] = violations
    counts["__budget_unknown__"] = unknowns
    return counts

