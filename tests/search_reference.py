"""The original recursive search engines, kept as a test oracle.

:mod:`repro.checkers.search` was rewritten as an explicit-stack iterative
engine with per-object candidate indexing (the recursive version hits
Python's recursion limit at ~1000 operations and rescans every operation
at every DFS node).  These are the pre-rewrite implementations, preserved
verbatim so that:

* ``tests/test_search_engine.py`` can cross-validate the iterative
  engine against an independent implementation on randomized histories
  (with and without ``read_filter``);
* ``benchmarks/bench_checker_scaling.py`` can measure the speedup.

They recurse once per operation and cost O(history) per search state.
Equal effective times are tried in the order ``operations`` gives them,
as the iterative engine does.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.checkers.search import DEFAULT_BUDGET, ReadFilter, SearchStats
from repro.core.history import DEFAULT_INITIAL_VALUE
from repro.core.operations import Operation

_MISSING = object()


def find_serialization_recursive(
    operations: Sequence[Operation],
    predecessor_edges: Dict[Operation, Set[Operation]],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
    read_filter: Optional[ReadFilter] = None,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[List[Operation]]:
    """Reference (recursive) version of
    :func:`repro.checkers.search.find_serialization`."""
    ops = sorted(operations, key=lambda op: op.time)
    opset = set(ops)
    preds: Dict[Operation, FrozenSet[Operation]] = {
        op: frozenset(p for p in predecessor_edges.get(op, ()) if p in opset)
        for op in ops
    }
    if stats is None:
        stats = SearchStats(budget)
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
    budget: int = DEFAULT_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[List[Operation]]:
    """Reference (recursive) version of
    :func:`repro.checkers.search.find_site_ordered_serialization`."""
    sites = sorted(site_sequences)
    seqs = [site_sequences[s] for s in sites]
    total = sum(len(seq) for seq in seqs)
    if stats is None:
        stats = SearchStats(budget)
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
