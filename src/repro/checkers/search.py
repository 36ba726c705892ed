"""Iterative, indexed backtracking search for legal constrained serializations.

This is the engine under the SC/CC/TSC/TCC checkers.  The problem — does a
legal serialization of a set of operations exist that respects a given
partial order? — is NP-complete in general (paper footnote 2), so we use
exact backtracking with three standard accelerations:

* **memoization of failed states**: a state is the pair (set of scheduled
  operations, last written value per object); if a state failed once it
  will fail again regardless of how it was reached;
* **per-object candidate indexing**: the not-yet-scheduled operations whose
  order constraints are satisfied (the *ready* set) are maintained
  incrementally — writes in one pool, reads keyed by ``(object, expected
  value)`` — so a state only ever examines *enabled* candidates (ready
  writes plus the reads that can legally return each object's current
  value) instead of rescanning the whole history;
* **a time-ordered branching heuristic**: enabled candidates are tried in
  effective-time order, ties by *rank* (the operation's position in what
  the search was given: the sequence, or the site sequences one after
  another in site order), through a lazily-popped heap of
  ``(time, rank, op)`` entries (built by ``heapify``, never fully
  sorted), which finds the witness quickly on the
  overwhelmingly common "almost linearizable" histories produced by real
  protocols — usually after a single pop.

The search itself runs on an **explicit stack** (one `_Frame` per partial
serialization), not on Python recursion, so histories of tens of thousands
of operations check without ``RecursionError`` regardless of
``sys.getrecursionlimit()``.  The original recursive engines are kept
beside the tests that cross-validate the two on randomized histories
(``tests/search_reference.py``).

Two entry points:

* :func:`find_serialization` — generic: constraints given as explicit
  predecessor edges (used for causal consistency, where the order is an
  arbitrary DAG);
* :func:`find_site_ordered_serialization` — specialized for program-order
  constraints (used for SC): the state collapses to a vector of per-site
  indices, which both shrinks memo keys and guarantees the scheduled set is
  a function of the indices.

Both accept a ``read_filter`` predicate so the timed checkers can run the
*direct* Definition-3/4 search (reject scheduling a read that would not be
on time) — the fast path instead uses the decomposition documented in
:mod:`repro.core.timed`, and the tests cross-validate the two.

Every search threads a :class:`SearchStats` — states expanded, memo hits,
prunes by reason, max frontier depth, wall time — which the checker
front-ends surface on :class:`repro.checkers.result.CheckResult` and the
CLI renders via ``repro check --stats``.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checkers.result import SearchBudgetExceeded
from repro.core.history import DEFAULT_INITIAL_VALUE
from repro.core.operations import Operation

#: Default cap on distinct search states before giving up.
DEFAULT_BUDGET = 2_000_000

#: ``read_filter(read_op, writer_or_None) -> bool``: may this read be
#: scheduled reading from that writer?
ReadFilter = Callable[[Operation, Optional[Operation]], bool]

#: The prune taxonomy reported in :attr:`SearchStats.prunes`:
#:
#: * ``value_mismatch`` — ready reads whose expected value differs from the
#:   object's current value (never even enumerated, counted arithmetically);
#: * ``read_filter`` — enabled reads rejected by the caller's timedness
#:   filter (the direct Definition-3/4 check);
#: * ``constraint`` — pending operations whose order constraints were not
#:   yet satisfied at an expanded state;
#: * ``dead_end`` — expanded states with no enabled candidate at all.
PRUNE_REASONS = ("value_mismatch", "read_filter", "constraint", "dead_end")

_MISSING = object()


class SearchStats:
    """Instrumentation for one search invocation (sharable across calls).

    ``states`` counts expanded states and is checked against ``budget``
    (``None``: :data:`DEFAULT_BUDGET`; exceeding it raises
    :class:`SearchBudgetExceeded`); ``memo_hits``
    counts states skipped because an identical state already failed;
    ``prunes`` maps each reason in :data:`PRUNE_REASONS` to a count;
    ``max_frontier_depth`` is the deepest partial serialization reached;
    ``wall_time`` accumulates seconds spent inside the engine.
    """

    __slots__ = (
        "budget",
        "states",
        "memo_hits",
        "prunes",
        "max_frontier_depth",
        "wall_time",
        "_t0",
    )

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.states = 0
        self.memo_hits = 0
        self.prunes: Dict[str, int] = dict.fromkeys(PRUNE_REASONS, 0)
        self.max_frontier_depth = 0
        self.wall_time = 0.0
        self._t0: Optional[float] = None

    def bump(self) -> None:
        """Count one expanded state, enforcing the budget."""
        self.states += 1
        if self.states > self.budget:
            raise SearchBudgetExceeded(self.budget)

    def note_memo_hit(self) -> None:
        self.memo_hits += 1

    def note_prune(self, reason: str, count: int = 1) -> None:
        if count:
            if reason not in self.prunes:
                raise KeyError(
                    f"unknown prune reason {reason!r}; "
                    f"expected one of {PRUNE_REASONS}"
                )
            self.prunes[reason] += count

    def note_depth(self, depth: int) -> None:
        if depth > self.max_frontier_depth:
            self.max_frontier_depth = depth

    # -- timing ------------------------------------------------------------

    def start_timer(self) -> None:
        if self._t0 is None:
            self._t0 = time.perf_counter()

    def stop_timer(self) -> None:
        if self._t0 is not None:
            self.wall_time += time.perf_counter() - self._t0
            self._t0 = None

    # -- presentation ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "states": self.states,
            "memo_hits": self.memo_hits,
            "prunes": {r: self.prunes.get(r, 0) for r in PRUNE_REASONS},
            "max_frontier_depth": self.max_frontier_depth,
            "wall_time": self.wall_time,
            "budget": self.budget,
        }

    def __repr__(self) -> str:
        prunes = ", ".join(
            f"{r}={self.prunes.get(r, 0)}" for r in PRUNE_REASONS
        )
        return (
            f"<SearchStats states={self.states} memo_hits={self.memo_hits} "
            f"depth={self.max_frontier_depth} wall={self.wall_time:.4f}s "
            f"prunes=[{prunes}]>"
        )


class _CandidateIndex:
    """Incrementally maintained index of the *ready* operations.

    Ready = every order constraint satisfied.  Writes live in one pool;
    reads are keyed by ``(object, expected value)``, so enumerating a
    state's candidates touches only the ready writes plus the reads that
    can legally return each object's current value — reads waiting for a
    different value cost nothing (they are counted as ``value_mismatch``
    prunes arithmetically).
    """

    __slots__ = ("rank", "writes", "reads", "read_count")

    def __init__(self, rank: Dict[Operation, int]) -> None:
        self.rank = rank
        self.writes: Set[Operation] = set()
        self.reads: Dict[str, Dict[Any, Set[Operation]]] = {}
        self.read_count = 0

    def __len__(self) -> int:
        return len(self.writes) + self.read_count

    def add(self, op: Operation) -> None:
        if op.is_write:
            self.writes.add(op)
        else:
            self.reads.setdefault(op.obj, {}).setdefault(op.value, set()).add(op)
            self.read_count += 1

    def remove(self, op: Operation) -> None:
        if op.is_write:
            self.writes.remove(op)
        else:
            by_value = self.reads[op.obj]
            group = by_value[op.value]
            group.remove(op)
            if not group:
                del by_value[op.value]
                if not by_value:
                    del self.reads[op.obj]
            self.read_count -= 1

    def enabled(
        self,
        last_vals: Dict[str, Any],
        last_writer: Dict[str, Optional[Operation]],
        initial_value: Any,
        read_filter: Optional[ReadFilter],
        stats: SearchStats,
    ) -> List[Tuple[float, int, Operation]]:
        """Heap entries ``(time, rank, op)`` for this state's candidates."""
        rank = self.rank
        out: List[Tuple[float, int, Operation]] = [
            (op.time, rank[op], op) for op in self.writes
        ]
        enabled_reads = 0
        for obj, by_value in self.reads.items():
            group = by_value.get(last_vals.get(obj, initial_value))
            if not group:
                continue
            if read_filter is None:
                for op in group:
                    out.append((op.time, rank[op], op))
                enabled_reads += len(group)
            else:
                writer = last_writer.get(obj)
                for op in group:
                    enabled_reads += 1
                    if read_filter(op, writer):
                        out.append((op.time, rank[op], op))
                    else:
                        stats.note_prune("read_filter")
        stats.note_prune("value_mismatch", self.read_count - enabled_reads)
        return out


class _Frame:
    """One node of the explicit DFS stack.

    ``key`` is the state's memo key, computed lazily — ``None`` until the
    state is either looked up in the memo or fails (memo keys are O(state)
    to build, so a search that never backtracks never builds one); ``heap``
    is the lazily-popped candidate heap; ``op``/``prev_val``/``prev_writer``
    record how the state was entered so backtracking can undo it (``op is
    None`` for the root).
    """

    __slots__ = ("key", "heap", "op", "prev_val", "prev_writer")

    def __init__(
        self,
        heap: List[Tuple[float, int, Operation]],
        op: Optional[Operation],
        prev_val: Any,
        prev_writer: Optional[Operation],
    ) -> None:
        self.key: Any = None
        self.heap = heap
        self.op = op
        self.prev_val = prev_val
        self.prev_writer = prev_writer


def _last_value_key(last_vals: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(last_vals.items()))


def find_serialization(
    operations: Sequence[Operation],
    predecessor_edges: Dict[Operation, Set[Operation]],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
    read_filter: Optional[ReadFilter] = None,
    budget: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[List[Operation]]:
    """Find a legal serialization of ``operations`` respecting the edges.

    ``predecessor_edges[b]`` is the set of operations that must precede
    ``b`` (edges to operations outside ``operations`` are ignored).
    Returns the serialization, or ``None`` if none exists.
    Raises :class:`SearchBudgetExceeded` past the state budget.
    """
    rank = {op: i for i, op in enumerate(operations)}
    ops = sorted(operations, key=lambda op: op.time)  # stable: ties by rank
    total = len(ops)
    if stats is None:
        stats = SearchStats(budget)
    if total == 0:
        return []

    blocking: Dict[Operation, int] = {}
    successors: Dict[Operation, List[Operation]] = {op: [] for op in ops}
    for op in ops:
        preds = {p for p in predecessor_edges.get(op, ()) if p in rank}
        blocking[op] = len(preds)
        for pred in preds:
            if pred is not op:  # a self-edge just blocks op forever
                successors[pred].append(op)

    index = _CandidateIndex(rank)
    for op in ops:
        if blocking[op] == 0:
            index.add(op)

    last_vals: Dict[str, Any] = {}
    last_writer: Dict[str, Optional[Operation]] = {}
    sequence: List[Operation] = []
    failed: Set[Tuple[FrozenSet[Operation], Tuple[Tuple[str, Any], ...]]] = set()

    def schedule(op: Operation) -> Tuple[Any, Optional[Operation]]:
        sequence.append(op)
        index.remove(op)
        for succ in successors[op]:
            blocking[succ] -= 1
            if blocking[succ] == 0:
                index.add(succ)
        prev_val: Any = _MISSING
        prev_writer: Optional[Operation] = None
        if op.is_write:
            prev_val = last_vals.get(op.obj, _MISSING)
            prev_writer = last_writer.get(op.obj)
            last_vals[op.obj] = op.value
            last_writer[op.obj] = op
        return prev_val, prev_writer

    def unschedule(op: Operation, prev_val: Any, prev_writer: Optional[Operation]) -> None:
        if op.is_write:
            if prev_val is _MISSING:
                del last_vals[op.obj]
            else:
                last_vals[op.obj] = prev_val
            last_writer[op.obj] = prev_writer
        for succ in successors[op]:
            if blocking[succ] == 0:
                index.remove(succ)
            blocking[succ] += 1
        index.add(op)
        sequence.pop()

    def expand() -> List[Tuple[float, int, Operation]]:
        stats.bump()
        stats.note_depth(len(sequence))
        stats.note_prune("constraint", (total - len(sequence)) - len(index))
        heap = index.enabled(last_vals, last_writer, initial_value, read_filter, stats)
        if not heap:
            stats.note_prune("dead_end")
        else:
            heapify(heap)
        return heap

    def current_key() -> Tuple[FrozenSet[Operation], Tuple[Tuple[str, Any], ...]]:
        """Memo key of the *current* state (the top frame's state)."""
        return frozenset(sequence), _last_value_key(last_vals)

    stats.start_timer()
    try:
        stack = [_Frame(expand(), None, None, None)]
        while stack:
            frame = stack[-1]
            if not frame.heap:
                # Every candidate of this state failed: memoize and undo.
                # ``sequence`` still equals this frame's state, so the key
                # can be built now if no memo lookup built it earlier.
                failed.add(frame.key if frame.key is not None else current_key())
                stack.pop()
                if frame.op is not None:
                    unschedule(frame.op, frame.prev_val, frame.prev_writer)
                continue
            _, _, op = heappop(frame.heap)
            prev_val, prev_writer = schedule(op)
            if len(sequence) == total:
                return list(sequence)
            key = None
            if failed:
                key = current_key()
                if key in failed:
                    stats.note_memo_hit()
                    unschedule(op, prev_val, prev_writer)
                    continue
            child = _Frame(expand(), op, prev_val, prev_writer)
            child.key = key
            stack.append(child)
        return None
    finally:
        stats.stop_timer()


def find_site_ordered_serialization(
    site_sequences: Dict[int, List[Operation]],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
    read_filter: Optional[ReadFilter] = None,
    budget: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[List[Operation]]:
    """Find a legal serialization respecting each site's program order.

    Specialized for SC/TSC: the scheduled set is fully described by the
    per-site indices, so the memo key is (index vector, last values) — an
    O(sites) key instead of the generic engine's O(operations) one.
    """
    sites = sorted(site_sequences)
    seqs = [site_sequences[s] for s in sites]
    total = sum(len(seq) for seq in seqs)
    if stats is None:
        stats = SearchStats(budget)
    if total == 0:
        return []

    site_of: Dict[Operation, int] = {}
    rank: Dict[Operation, int] = {}
    for k, seq in enumerate(seqs):
        for op in seq:
            site_of[op] = k
            rank[op] = len(rank)

    indices = [0] * len(seqs)
    index = _CandidateIndex(rank)
    for k, seq in enumerate(seqs):
        if seq:
            index.add(seq[0])

    last_vals: Dict[str, Any] = {}
    last_writer: Dict[str, Optional[Operation]] = {}
    sequence: List[Operation] = []
    failed: Set[Tuple[Tuple[int, ...], Tuple[Tuple[str, Any], ...]]] = set()

    def schedule(op: Operation) -> Tuple[Any, Optional[Operation]]:
        sequence.append(op)
        index.remove(op)
        k = site_of[op]
        indices[k] += 1
        if indices[k] < len(seqs[k]):
            index.add(seqs[k][indices[k]])
        prev_val: Any = _MISSING
        prev_writer: Optional[Operation] = None
        if op.is_write:
            prev_val = last_vals.get(op.obj, _MISSING)
            prev_writer = last_writer.get(op.obj)
            last_vals[op.obj] = op.value
            last_writer[op.obj] = op
        return prev_val, prev_writer

    def unschedule(op: Operation, prev_val: Any, prev_writer: Optional[Operation]) -> None:
        if op.is_write:
            if prev_val is _MISSING:
                del last_vals[op.obj]
            else:
                last_vals[op.obj] = prev_val
            last_writer[op.obj] = prev_writer
        k = site_of[op]
        if indices[k] < len(seqs[k]):
            index.remove(seqs[k][indices[k]])
        indices[k] -= 1
        index.add(op)
        sequence.pop()

    def expand() -> List[Tuple[float, int, Operation]]:
        stats.bump()
        stats.note_depth(len(sequence))
        stats.note_prune("constraint", (total - len(sequence)) - len(index))
        heap = index.enabled(last_vals, last_writer, initial_value, read_filter, stats)
        if not heap:
            stats.note_prune("dead_end")
        else:
            heapify(heap)
        return heap

    def current_key() -> Tuple[Tuple[int, ...], Tuple[Tuple[str, Any], ...]]:
        """Memo key of the *current* state (the top frame's state)."""
        return (tuple(indices), _last_value_key(last_vals))

    stats.start_timer()
    try:
        stack = [_Frame(expand(), None, None, None)]
        while stack:
            frame = stack[-1]
            if not frame.heap:
                # Every candidate of this state failed: memoize and undo.
                failed.add(frame.key if frame.key is not None else current_key())
                stack.pop()
                if frame.op is not None:
                    unschedule(frame.op, frame.prev_val, frame.prev_writer)
                continue
            _, _, op = heappop(frame.heap)
            prev_val, prev_writer = schedule(op)
            if len(sequence) == total:
                return list(sequence)
            key = None
            if failed:
                key = current_key()
                if key in failed:
                    stats.note_memo_hit()
                    unschedule(op, prev_val, prev_writer)
                    continue
            child = _Frame(expand(), op, prev_val, prev_writer)
            child.key = key
            stack.append(child)
        return None
    finally:
        stats.stop_timer()


def restrict_edges(
    pairs: Iterable[Tuple[Operation, Operation]],
    operations: Sequence[Operation],
) -> Dict[Operation, Set[Operation]]:
    """Turn (a, b) order pairs into a predecessor map over ``operations``."""
    preds: Dict[Operation, Set[Operation]] = {op: set() for op in operations}
    for a, b in pairs:
        if a in preds and b in preds:
            preds[b].add(a)
    return preds
