"""The checking engine: constraint saturation decides every criterion.

Every criterion of the paper asks whether a legal serialization of some
operations respects some order (program order for SC, causal order per
``H_{i+w}`` for CC, the effective-time order for LIN), and deciding that
is NP-complete (footnote 2).  The checkers first try the effective-time
order (:func:`~repro.core.serialization.time_order_witness`): on a
linearizable history it is the witness, found in one pass.  Otherwise
they call :func:`find_constrained_serialization`, which runs the classic
analysis (in the spirit of Gibbons & Korach's study of the problem):

1. Build the *forced* order: the given edges plus a reads-from edge
   ``w -> r`` for every read (written values are unique, so reads-from is
   known).  A read of a value that no write produced, other than the
   initial value, has no legal place at all.
2. For every read ``r`` returning write ``w``, every other write ``w'`` to
   the same object must satisfy the disjunction ``w' -> w  OR  r -> w'``
   (otherwise ``w'`` would sit between ``w`` and ``r`` and ``r`` would not
   read ``w``).  Saturate: whenever reachability forces one disjunct
   (e.g. ``w`` reaches ``w'``, so ``w' -> w`` is impossible), add the
   other as a new edge; a contradiction (cycle) means *not* serializable.
3. If saturation ends with unresolved disjunctions, branch on one and
   recurse (this is where the NP-completeness lives); protocol traces
   essentially always resolve fully, so in practice the check is
   polynomial.  ``budget`` caps the branch nodes.

Reachability is a dense boolean matrix updated incrementally on edge
insertion (numpy when available, imported on first use; pure-Python
bytearrays otherwise), so a
single edge add costs O(V^2) worst case and saturation stays comfortable
for a few thousand operations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checkers.result import CheckResult, SearchBudgetExceeded
from repro.core.history import History
from repro.core.operations import Operation

#: Default cap on branch nodes before giving up (``budget=None``).
BRANCH_BUDGET = 10_000

#: numpy, an optional accelerator, or ``None`` without it: imported by
#: the first :class:`_Reach`, not with this module, which every process
#: that may check a trace imports and most never use.  ``...`` until then.
_np: Any = ...


def _numpy() -> Any:
    global _np
    if _np is ...:
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - numpy is an optional accelerator
            _np = None
    return _np


class _Reach:
    """Dense strict-reachability matrix with incremental edge insertion."""

    def __init__(self, n: int) -> None:
        self.n = n
        if _numpy() is not None:
            self.m = _np.zeros((n, n), dtype=bool)
        else:
            self.m = [bytearray(n) for _ in range(n)]

    def has(self, a: int, b: int) -> bool:
        if _np is not None:
            return bool(self.m[a, b])
        return bool(self.m[a][b])

    def add_edge(self, a: int, b: int) -> bool:
        """Insert a -> b and transitively close.  Returns False on a cycle
        (b already reaches a, or a == b)."""
        if a == b:
            return False
        if self.has(b, a):
            return False
        if self.has(a, b):
            return True
        if _np is not None:
            from_a = self.m[:, a].copy()
            from_a[a] = True
            to_b = self.m[b, :].copy()
            to_b[b] = True
            self.m |= _np.outer(from_a, to_b)
        else:
            sources = [i for i in range(self.n) if self.m[i][a]] + [a]
            targets = [j for j in range(self.n) if self.m[b][j]] + [b]
            for i in sources:
                row = self.m[i]
                for j in targets:
                    row[j] = 1
        return True

    def copy(self) -> "_Reach":
        clone = _Reach.__new__(_Reach)
        clone.n = self.n
        if _np is not None:
            clone.m = self.m.copy()
        else:
            clone.m = [bytearray(row) for row in self.m]
        return clone


#: A disjunction: (reader index, its writer index or None for the initial
#: value, conflicting writer index).
_Disjunction = Tuple[int, Optional[int], int]


def find_constrained_serialization(
    history: History,
    operations: Sequence[Operation],
    base_edges: Iterable[Tuple[Operation, Operation]],
    budget: Optional[int] = None,
    explain: Optional[Dict[str, List[Operation]]] = None,
) -> Tuple[Optional[List[Operation]], int]:
    """Find a legal serialization of ``operations`` (drawn from
    ``history``) respecting ``base_edges``.

    Returns the serialization, or ``None`` if there is none, together
    with the branch nodes explored.  Each read returns the write
    ``history`` resolves it to; a read whose writer is not among
    ``operations`` returns the initial value, or cannot be placed at all
    when its value is another.  Raises :class:`SearchBudgetExceeded` if
    more than ``budget`` branch nodes (``None``: :data:`BRANCH_BUDGET`)
    are explored.

    When ``explain`` (a dict) is supplied and the *deterministic* part of
    the analysis finds a contradiction, ``explain["cycle"]`` receives the
    forced cycle of operations as evidence of the violation,
    ``explain["between"]`` a write forced between a read and its writer,
    or ``explain["unwritten"]`` a read of a value no write produced.
    (A failure discovered only inside branching carries no witness.)
    """
    ops = list(operations)
    index = {op: i for i, op in enumerate(ops)}
    n = len(ops)
    reach = _Reach(n)
    edges: List[Tuple[int, int]] = []

    def record_cycle(a: int, b: int) -> None:
        """Edge a -> b failed because b already reaches a: produce the
        cycle a -> b ~~> a from the concrete edges inserted so far."""
        if explain is None:
            return
        adjacency: Dict[int, List[int]] = {}
        for x, y in edges:
            adjacency.setdefault(x, []).append(y)
        # BFS from b to a over inserted edges.
        parent: Dict[int, int] = {b: -1}
        queue = [b]
        while queue:
            node = queue.pop(0)
            if node == a:
                break
            for nxt in adjacency.get(node, ()):
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        if a not in parent:
            return  # reachability came through an edge we did not record
        path = [a]
        while path[-1] != b:
            path.append(parent[path[-1]])
        path.reverse()  # b ... a
        explain["cycle"] = [ops[i] for i in ([a] + path)]

    def add(a: int, b: int, into: _Reach) -> bool:
        ok = into.add_edge(a, b)
        if ok and into is reach:
            edges.append((a, b))
        elif not ok and into is reach:
            record_cycle(a, b)
        return ok

    for a, b in base_edges:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None or ia == ib:
            continue
        if not add(ia, ib, reach):
            return None, 0

    # Reads-from edges and the disjunction list.
    writes_by_obj: Dict[str, List[int]] = {}
    for i, op in enumerate(ops):
        if op.is_write:
            writes_by_obj.setdefault(op.obj, []).append(i)

    disjunctions: List[_Disjunction] = []
    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        iw = index.get(history.writer_of(op))
        if iw is None and op.value != history.initial_value:
            if explain is not None:
                explain["unwritten"] = [op]
            return None, 0
        if iw is not None and not add(iw, i, reach):
            return None, 0
        for j in writes_by_obj.get(op.obj, ()):
            if j == iw:
                continue
            disjunctions.append((i, iw, j))

    cap = BRANCH_BUDGET if budget is None else budget
    left = [cap]

    def saturate(r: _Reach, pending: List[_Disjunction], local_edges: List[Tuple[int, int]]):
        """Apply forced disjuncts to fixpoint.  Returns the still-unresolved
        disjunctions, or None on contradiction."""
        def record(a: int, b: int) -> bool:
            if not r.add_edge(a, b):
                if r is reach:
                    record_cycle(a, b)
                return False
            if r is reach:
                edges.append((a, b))
            else:
                local_edges.append((a, b))
            return True

        work = list(pending)
        while True:
            changed = False
            remaining: List[_Disjunction] = []
            for (i, iw, j) in work:
                # Disjunction: (w' -> w) or (r -> w'), with r = ops[i],
                # w = ops[iw] (None = the initial value, which precedes
                # everything), w' = ops[j].
                if iw is not None and r.has(j, iw):
                    continue  # resolved: w' before w
                if r.has(i, j):
                    continue  # resolved: w' after r
                before_w_impossible = iw is None or r.has(iw, j)
                after_r_impossible = r.has(j, i)
                if before_w_impossible and after_r_impossible:
                    # w' forced strictly between w and r.
                    if explain is not None and r is reach:
                        explain["between"] = [
                            ops[x] for x in ([iw] if iw is not None else [])
                        ] + [ops[j], ops[i]]
                    return None
                if before_w_impossible:
                    if not record(i, j):  # force r -> w'
                        return None
                    changed = True
                elif after_r_impossible:
                    if not record(j, iw):  # force w' -> w
                        return None
                    changed = True
                else:
                    remaining.append((i, iw, j))
            work = remaining
            if not changed:
                return work

    def solve(r: _Reach, pending: List[_Disjunction], local_edges: List[Tuple[int, int]]):
        left[0] -= 1
        if left[0] < 0:
            raise SearchBudgetExceeded(cap)
        remaining = saturate(r, pending, local_edges)
        if remaining is None:
            return None
        if not remaining:
            return local_edges
        i, iw, j = remaining[0]
        # Branch 1: w' -> w.
        r1 = r.copy()
        e1 = list(local_edges)
        assert iw is not None  # iw None is always forced in saturate
        if r1.add_edge(j, iw):
            e1.append((j, iw))
            result = solve(r1, remaining[1:], e1)
            if result is not None:
                return result
        # Branch 2: r -> w'.
        r2 = r.copy()
        e2 = list(local_edges)
        if r2.add_edge(i, j):
            e2.append((i, j))
            result = solve(r2, remaining[1:], e2)
            if result is not None:
                return result
        return None

    extra = solve(reach, disjunctions, [])
    nodes = cap - left[0]
    if extra is None:
        return None, nodes

    # Topological order of (base + forced + branched) edges is a witness.
    adjacency: Dict[int, List[int]] = {i: [] for i in range(n)}
    indegree = [0] * n
    seen: Set[Tuple[int, int]] = set()
    for a, b in edges + extra:
        if (a, b) in seen:
            continue
        seen.add((a, b))
        adjacency[a].append(b)
        indegree[b] += 1
    # Deterministic witness: prefer earlier effective times among ready ops.
    ready = sorted(
        (i for i in range(n) if indegree[i] == 0),
        key=lambda i: (ops[i].time, i),
    )
    out: List[int] = []
    import heapq

    heap = [(ops[i].time, i) for i in ready]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        out.append(i)
        for j in adjacency[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (ops[j].time, j))
    if len(out) != n:
        return None, nodes  # cycle (should have been caught earlier)
    return [ops[i] for i in out], nodes


def _violation_text(explain: Dict[str, List[Operation]], what: str) -> str:
    if "unwritten" in explain:
        (r,) = explain["unwritten"]
        return f"{r.label()} returns a value no write produced ({what})"
    if "cycle" in explain:
        labels = " -> ".join(op.label() for op in explain["cycle"])
        return f"forced ordering cycle: {labels} ({what})"
    if "between" in explain:
        parts = [op.label() for op in explain["between"]]
        if len(parts) == 3:
            w, w2, r = parts
            return (
                f"{w2} is forced strictly between {w} and {r}, so {r} "
                f"cannot read {w}'s value ({what})"
            )
        w2, r = parts
        return (
            f"{w2} is forced before {r}, which reads the initial value "
            f"({what})"
        )
    return f"constraint saturation found a contradiction ({what})"


def decide(
    criterion: str,
    history: History,
    operations: Sequence[Operation],
    edges: Iterable[Tuple[Operation, Operation]],
    what: str,
    budget: Optional[int] = None,
) -> CheckResult:
    """``criterion`` holds iff a legal serialization of ``operations``
    respects ``edges``.  The result carries it as the witness, or else a
    violation explaining why there is none, ending in ``what``;
    ``states_explored`` is the branch nodes the engine used."""
    explain: Dict[str, List[Operation]] = {}
    witness, nodes = find_constrained_serialization(
        history, operations, edges, budget=budget, explain=explain
    )
    if witness is None:
        return CheckResult(
            criterion,
            False,
            violation=_violation_text(explain, what),
            states_explored=nodes,
        )
    return CheckResult(criterion, True, witness=witness, states_explored=nodes)
