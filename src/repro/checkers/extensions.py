"""Additional consistency criteria situating the paper's hierarchy.

The paper positions SC and CC inside the classical family of weak
consistency models; this module adds the neighbouring criteria so the
library covers the whole ladder, and — following the paper's recipe of
conjoining an ordering criterion with *reading on time* — their timed
variants come for free:

* **PRAM / FIFO consistency** (Lipton & Sandberg): every site sees each
  *other* site's writes in program order, but need not agree on the
  interleaving across writers.  ``CC ⊆ PRAM`` (causal order contains
  program order), hence ``SC ⊆ CC ⊆ PRAM``.
* **Coherence / cache consistency** (Goodman): per *object*, all sites
  agree on a single order — SC object-by-object, with no cross-object
  guarantees.  Coherence neither contains nor is contained in PRAM.
* **Processor consistency** (Goodman/Ahamad et al.): PRAM and coherence
  simultaneously, under one per-site serialization.

* :func:`check_timed` — the generic timed combinator: because written
  values are unique, *any* of these ordering criteria upgrades to its
  timed version by conjoining the Definition 1/2 reading-on-time
  predicate, exactly as TSC = SC + on-time and TCC = CC + on-time.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

from repro.checkers.constraint import decide, find_constrained_serialization
from repro.checkers.result import CheckResult
from repro.clocks.xi import XiMap
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.timed import (
    _required_deltas, _xi_time, late_reads, w_r_set, w_r_set_logical,
)


def _per_writer_program_order(history: History, ops: List[Operation]):
    """Each site's operations among ``ops``, chained in program order (one
    left out does not cut its site's chain)."""
    keep = set(ops)
    chains = [[op for op in history.site_ops(site) if op in keep]
              for site in history.sites]
    return [pair for chain in chains for pair in zip(chain, chain[1:])]


def check_pram(history: History, budget: Optional[int] = None) -> CheckResult:
    """PRAM (FIFO) consistency: per site i, a legal serialization of
    ``H_{i+w}`` respecting every site's program order (but not causality
    through reads, which is what separates it from CC).  Each ``H_{i+w}``
    is decided like SC's whole history: the recorded write order first,
    the engine only on a cycle."""
    site_witnesses: Dict[int, List[Operation]] = {}
    nodes = 0
    for site in history.sites:
        ops = history.site_plus_writes(site)
        base = _per_writer_program_order(history, ops)
        result = decide("PRAM", history, ops, base, "PRAM", budget=budget)
        nodes += result.states_explored
        if not result.satisfied:
            return CheckResult(
                "PRAM",
                False,
                violation=(
                    f"no legal serialization of H_({site}+w) respects the "
                    "writers' program orders"
                ),
                states_explored=nodes,
            )
        site_witnesses[site] = result.witness
    return CheckResult(
        "PRAM", True, site_witnesses=site_witnesses, states_explored=nodes
    )


def _per_object(history: History):
    """Each object's operations, with its writers' program orders."""
    for obj in history.objects:
        ops = [op for op in history.operations if op.obj == obj]
        yield obj, ops, _per_writer_program_order(history, ops)


def check_coherence(history: History, budget: Optional[int] = None) -> CheckResult:
    """Coherence (cache consistency): for each object, one global legal
    serialization of that object's operations respecting program order."""
    witnesses: Dict[str, List[Operation]] = {}
    for obj, ops, base in _per_object(history):
        witness, _ = find_constrained_serialization(
            history, ops, base, budget=budget
        )
        if witness is None:
            return CheckResult(
                "Coherence",
                False,
                violation=f"operations on {obj} cannot be serialized in a "
                "single order respecting program order",
            )
        witnesses[obj] = witness
    # Reuse site_witnesses storage keyed by object index for uniformity.
    return CheckResult(
        "Coherence",
        True,
        site_witnesses={i: w for i, w in enumerate(witnesses.values())},
    )


def check_processor(history: History, budget: Optional[int] = None) -> CheckResult:
    """Processor consistency: per site i, one serialization of H_{i+w}
    that respects the writers' program orders *and* agrees with a single
    global per-object write order (coherence).

    Implemented as PRAM plus shared per-object write-order edges taken
    from a coherent witness, so a SATISFIED verdict is always a checked
    witness.  Two coherent write orders are tried: the engine's, then,
    if that one fails, the one :func:`~repro.checkers.constraint.decide`
    takes from the recorded write order.  On 1 203 histories (the
    paper's figures 1, 5 and 6 and seeds 0–299 of each
    ``repro.workloads.random_history`` generator) the second turns 81
    violated verdicts satisfied and none violated.  What is still
    incomplete: a history whose only PC witness needs a third coherent
    write order is reported VIOLATED; the verdict is exact whenever the
    write order is forced.
    """
    coherent = check_coherence(history, budget)
    if not coherent.satisfied:
        return CheckResult("PC", False, violation=coherent.violation)
    first = _pc_under(history, coherent.site_witnesses.values(), budget)
    if first.satisfied:
        return first
    recorded = [
        decide("Coherence", history, ops, base, obj, budget=budget).witness
        for obj, ops, base in _per_object(history)
    ]
    second = _pc_under(history, recorded, budget)
    return second if second.satisfied else first


def _pc_under(
    history: History, orders: Iterable[List[Operation]],
    budget: Optional[int],
) -> CheckResult:
    """PC with each object's writes fixed in the order ``orders`` (one
    coherent serialization per object) lists them."""
    write_order_edges = []
    for witness in orders:
        writes = [op for op in witness if op.is_write]
        write_order_edges.extend(zip(writes, writes[1:]))
    site_witnesses: Dict[int, List[Operation]] = {}
    for site in history.sites:
        ops = history.site_plus_writes(site)
        keep = set(ops)
        base = _per_writer_program_order(history, ops) + [
            (a, b) for a, b in write_order_edges
            if a in keep and b in keep
        ]
        witness, _ = find_constrained_serialization(
            history, ops, base, budget=budget
        )
        if witness is None:
            return CheckResult(
                "PC",
                False,
                violation=(
                    f"site {site} cannot serialize H_({site}+w) under the "
                    "agreed per-object write order"
                ),
            )
        site_witnesses[site] = witness
    return CheckResult("PC", True, site_witnesses=site_witnesses)


def check_timed(
    history: History,
    base_checker: Callable[[History], CheckResult],
    delta: float,
    epsilon: float = 0.0,
    *,
    criterion: Optional[str] = None,
    xi: Optional[XiMap] = None,
) -> CheckResult:
    """The paper's construction, generalized: *timed X* = X + on-time.

    Because written values are unique, whether each read occurs on time
    (Definitions 1-2) is independent of the serialization choice, so any
    ordering criterion combines with timedness by conjunction — exactly
    how the paper builds TSC from SC and TCC from CC.  This is the one
    place that conjunction is written: :func:`~repro.checkers.check_tsc`,
    :func:`~repro.checkers.check_tcc` and
    :func:`~repro.checkers.check_tcc_logical` are this function under
    their own ``criterion`` name, whose late-read violation also says how
    old the missed writes were.  With ``xi`` the reads are judged by
    Definition 6 instead (times ``xi(L(op))``, no epsilon).
    """
    if xi is None:
        params = {"delta": delta, "epsilon": epsilon}
        w_r = partial(w_r_set, history, delta=delta, epsilon=epsilon)
        late = late_reads(history, delta, epsilon)
    else:
        params = {"delta": delta}
        w_r = partial(w_r_set_logical, history, delta=delta, xi=xi)
        late = [
            r for r, need in _required_deltas(history, 0.0, _xi_time(xi))
            if need > delta
        ]
    # The late reads are found without building any W_r; the first one's
    # W_r names the violation.
    if late:
        r = late[0]
        labels = [w.label() for w in w_r(r)]
        if xi is not None:
            violation = (
                f"{r.label()} is late under xi={xi.name}: it misses {labels} "
                f"(more than delta={delta:g} units of global activity old)"
            )
        else:
            violation = (
                f"{r.label()} at T={r.time:g} is late: it misses {labels}"
            )
            if criterion is not None:
                violation += f" written more than delta={delta:g} before it"
        return CheckResult(
            criterion or "Timed", False, violation=violation, parameters=params
        )
    base = base_checker(history)
    return CheckResult(
        criterion or f"Timed-{base.criterion}",
        base.satisfied,
        witness=base.witness,
        site_witnesses=base.site_witnesses,
        violation=base.violation,
        states_explored=base.states_explored,
        parameters=params,
        unknown=base.unknown,
    )
