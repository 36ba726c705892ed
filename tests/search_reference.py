"""A recursive backtracking search, kept as the checkers' test oracle.

The package decides every criterion with one engine, constraint
saturation (:mod:`repro.checkers.constraint`), after trying the
effective-time order.  This module is an independent second way to the
same answers: a plain depth-first search over legal serializations with
memoized failed states, so that

* the tests can cross-validate the engine against it on randomized
  histories (:func:`check_sc_reference`, :func:`check_cc_reference`);
* the literal Definition 3/4 searches the decomposition
  ``TSC = SC + on time`` rests on can run as searches with a
  ``read_filter`` that refuses late reads (:func:`tsc_direct`,
  :func:`tcc_direct`);
* ``benchmarks/bench_checker_scaling.py`` can race it against the engine.

It recurses once per operation and costs O(history) per search state.
Equal effective times are tried in the order ``operations`` gives them.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.checkers.result import CheckResult
from repro.core.history import DEFAULT_INITIAL_VALUE, History
from repro.core.operations import Operation
from repro.core.timed import read_occurs_on_time

#: ``read_filter(read_op, writer_or_None) -> bool``: may this read be
#: scheduled reading from that writer?
ReadFilter = Callable[[Operation, Optional[Operation]], bool]

#: Cap on expanded search states before the reference gives up.
BUDGET = 2_000_000


class ReferenceBudgetExceeded(RuntimeError):
    """The reference search expanded more than its budget of states."""


class StateCounter:
    """Counts expanded states against :data:`BUDGET`."""

    def __init__(self) -> None:
        self.states = 0

    def bump(self) -> None:
        self.states += 1
        if self.states > BUDGET:
            raise ReferenceBudgetExceeded(BUDGET)


_MISSING = object()


def find_serialization_recursive(
    operations: Sequence[Operation],
    predecessor_edges: Dict[Operation, Set[Operation]],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
    read_filter: Optional[ReadFilter] = None,
) -> Optional[List[Operation]]:
    """A legal serialization of ``operations`` in which every operation
    follows its ``predecessor_edges`` (edges to operations outside
    ``operations`` are ignored), or ``None``."""
    ops = sorted(operations, key=lambda op: op.time)
    opset = set(ops)
    preds: Dict[Operation, FrozenSet[Operation]] = {
        op: frozenset(p for p in predecessor_edges.get(op, ()) if p in opset)
        for op in ops
    }
    stats = StateCounter()
    failed: Set[Tuple[FrozenSet[Operation], Tuple[Tuple[str, Any], ...]]] = set()
    last_writer: Dict[str, Optional[Operation]] = {}

    def last_value_key(last_vals: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(last_vals.items()))

    def dfs(
        scheduled: FrozenSet[Operation],
        sequence: List[Operation],
        last_vals: Dict[str, Any],
    ) -> Optional[List[Operation]]:
        if len(sequence) == len(ops):
            return list(sequence)
        key = (scheduled, last_value_key(last_vals))
        if key in failed:
            return None
        stats.bump()
        for op in ops:
            if op in scheduled:
                continue
            if not preds[op] <= scheduled:
                continue
            if op.is_read:
                expected = last_vals.get(op.obj, initial_value)
                if op.value != expected:
                    continue
                if read_filter is not None and not read_filter(
                    op, last_writer.get(op.obj)
                ):
                    continue
                sequence.append(op)
                result = dfs(scheduled | {op}, sequence, last_vals)
                if result is not None:
                    return result
                sequence.pop()
            else:
                prev_val = last_vals.get(op.obj, _MISSING)
                prev_writer = last_writer.get(op.obj)
                last_vals[op.obj] = op.value
                last_writer[op.obj] = op
                sequence.append(op)
                result = dfs(scheduled | {op}, sequence, last_vals)
                if result is not None:
                    return result
                sequence.pop()
                if prev_val is _MISSING:
                    del last_vals[op.obj]
                else:
                    last_vals[op.obj] = prev_val
                last_writer[op.obj] = prev_writer
        failed.add(key)
        return None

    return dfs(frozenset(), [], {})


def find_site_ordered_serialization_recursive(
    site_sequences: Dict[int, List[Operation]],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
    read_filter: Optional[ReadFilter] = None,
) -> Optional[List[Operation]]:
    """A legal serialization respecting each site's program order, or
    ``None``; the memo key is (per-site index vector, last values)."""
    sites = sorted(site_sequences)
    seqs = [site_sequences[s] for s in sites]
    total = sum(len(seq) for seq in seqs)
    stats = StateCounter()
    failed: Set[Tuple[Tuple[int, ...], Tuple[Tuple[str, Any], ...]]] = set()
    last_writer: Dict[str, Optional[Operation]] = {}

    def last_value_key(last_vals: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(last_vals.items()))

    def candidate_order(indices: Tuple[int, ...]) -> List[int]:
        """Site indices with a pending op, earliest effective time first."""
        pending = [
            (seqs[k][indices[k]].time, k)
            for k in range(len(seqs))
            if indices[k] < len(seqs[k])
        ]
        pending.sort()
        return [k for _, k in pending]

    def dfs(
        indices: Tuple[int, ...],
        sequence: List[Operation],
        last_vals: Dict[str, Any],
    ) -> Optional[List[Operation]]:
        if len(sequence) == total:
            return list(sequence)
        key = (indices, last_value_key(last_vals))
        if key in failed:
            return None
        stats.bump()
        for k in candidate_order(indices):
            op = seqs[k][indices[k]]
            next_indices = indices[:k] + (indices[k] + 1,) + indices[k + 1 :]
            if op.is_read:
                expected = last_vals.get(op.obj, initial_value)
                if op.value != expected:
                    continue
                if read_filter is not None and not read_filter(
                    op, last_writer.get(op.obj)
                ):
                    continue
                sequence.append(op)
                result = dfs(next_indices, sequence, last_vals)
                if result is not None:
                    return result
                sequence.pop()
            else:
                prev_val = last_vals.get(op.obj, _MISSING)
                prev_writer = last_writer.get(op.obj)
                last_vals[op.obj] = op.value
                last_writer[op.obj] = op
                sequence.append(op)
                result = dfs(next_indices, sequence, last_vals)
                if result is not None:
                    return result
                sequence.pop()
                if prev_val is _MISSING:
                    del last_vals[op.obj]
                else:
                    last_vals[op.obj] = prev_val
                last_writer[op.obj] = prev_writer
        failed.add(key)
        return None

    start = tuple(0 for _ in seqs)
    return dfs(start, [], {})


def check_sc_reference(
    history: History, read_filter: Optional[ReadFilter] = None
) -> CheckResult:
    """SC by the reference search (Definition 3's search with a filter)."""
    witness = find_site_ordered_serialization_recursive(
        {site: history.site_ops(site) for site in history.sites},
        history.initial_value,
        read_filter,
    )
    return CheckResult("SC", witness is not None, witness=witness)


def check_cc_reference(
    history: History, read_filter: Optional[ReadFilter] = None
) -> CheckResult:
    """CC by the reference search, one ``H_{i+w}`` at a time
    (Definition 4's search with a filter)."""
    closure = history.causal_predecessors()
    site_witnesses: Dict[int, List[Operation]] = {}
    for site in history.sites:
        ops = history.site_plus_writes(site)
        opset = set(ops)
        witness = find_serialization_recursive(
            ops,
            {op: closure[op] & opset for op in ops},
            history.initial_value,
            read_filter,
        )
        if witness is None:
            return CheckResult("CC", False)
        site_witnesses[site] = witness
    return CheckResult("CC", True, site_witnesses=site_witnesses)


def on_time_filter(
    history: History, delta: float, epsilon: float = 0.0
) -> ReadFilter:
    """Definition 1/2's filter: a read may read from a writer only on time."""

    def on_time(read_op: Operation, writer: Optional[Operation]) -> bool:
        return read_occurs_on_time(history, read_op, delta, epsilon, writer)

    return on_time


def tsc_direct(history: History, delta: float, epsilon: float = 0.0) -> bool:
    """TSC(delta) by the literal Definition-3 search."""
    on_time = on_time_filter(history, delta, epsilon)
    return check_sc_reference(history, on_time).satisfied


def tcc_direct(history: History, delta: float, epsilon: float = 0.0) -> bool:
    """TCC(delta) by the literal Definition-4 per-site search."""
    on_time = on_time_filter(history, delta, epsilon)
    return check_cc_reference(history, on_time).satisfied
