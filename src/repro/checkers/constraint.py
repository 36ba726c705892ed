"""The checking engine: the recorded write order, then constraint saturation.

Every criterion of the paper asks whether a legal serialization of some
operations respects some order (program order for SC, causal order per
``H_{i+w}`` for CC, the effective-time order for LIN), and deciding that
is NP-complete (footnote 2).  The checkers first try the effective-time
order (:func:`~repro.core.serialization.time_order_witness`): on a
linearizable history it is the witness, found in one pass.  Otherwise
:func:`decide` fixes each object's write order as recorded and sorts
one graph topologically (docs/THEORY.md, Result 5), which decides a
stack trace; only on a cycle does :func:`find_constrained_serialization`
run the classic analysis (in the spirit of Gibbons & Korach's study):

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

Reachability is kept transitively closed as one pure-Python structure:
row ``i`` and column ``j`` are int bitsets (bit ``j`` of row ``i`` set iff
``i`` reaches ``j``).  Inserting an edge ORs the new targets into the rows
of the sources that did not yet reach them, and the sources into the
matching columns, so an edge that adds nothing costs two bit tests and
one that does a big-int OR per changed row or column.  A branch does not
copy the matrix: every overwritten row or column goes on an undo trail,
and a failed branch pops it back.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checkers.result import CheckResult, SearchBudgetExceeded
from repro.core.history import History
from repro.core.operations import Operation

#: Default cap on branch nodes before giving up (``budget=None``).
BRANCH_BUDGET = 10_000


class _Reach:
    """Strict reachability with incremental edge insertion.

    ``rows[i]`` has bit ``j`` set iff ``i`` reaches ``j``, and ``cols[j]``
    bit ``i`` for the same pair.  While ``trail`` is a list, every row or
    column an insertion overwrites is logged there as ``(bitsets, index,
    old value)``, and :meth:`undo` restores the state at a mark.
    """

    __slots__ = ("rows", "cols", "trail")

    def __init__(self, n: int) -> None:
        self.rows = [0] * n
        self.cols = [0] * n
        self.trail: Optional[List[Tuple[List[int], int, int]]] = None

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def add_edge(self, a: int, b: int) -> bool:
        """Insert a -> b and transitively close.  Returns False on a cycle
        (b already reaches a, or a == b)."""
        if a == b:
            return False
        rows, cols = self.rows, self.cols
        if rows[b] >> a & 1:
            return False
        if rows[a] >> b & 1:
            return True
        sources = cols[a] | 1 << a
        targets = rows[b] | 1 << b
        # A source that already reaches b already reaches all of b's
        # targets, and a target a already reaches is already reached by
        # all of a's sources: only the others change.
        new_sources = sources & ~cols[b]
        new_targets = targets & ~rows[a]
        for bitsets, change, add in (
            (rows, new_sources, targets),
            (cols, new_targets, sources),
        ):
            while change:
                low = change & -change
                change ^= low
                i = low.bit_length() - 1
                if self.trail is not None:
                    self.trail.append((bitsets, i, bitsets[i]))
                bitsets[i] |= add
        return True

    def undo(self, mark: int) -> None:
        """Restore every row and column logged on the trail after ``mark``."""
        trail = self.trail
        while len(trail) > mark:
            bitsets, i, old = trail.pop()
            bitsets[i] = old


#: A disjunction: (reader index, its writer index or None for the initial
#: value, conflicting writer index).
_Disjunction = Tuple[int, Optional[int], int]


def find_constrained_serialization(
    history: History,
    operations: Sequence[Operation],
    base_edges: Iterable[Tuple[Operation, Operation]],
    budget: Optional[int] = None,
    explain: Optional[Dict[str, List[Operation]]] = None,
    site: Optional[int] = None,
) -> Tuple[Optional[List[Operation]], int]:
    """Find a legal serialization of ``operations`` (drawn from
    ``history``) respecting ``base_edges``.

    Returns the serialization, or ``None`` if there is none, together
    with the branch nodes explored.  Each read returns the write
    ``history`` resolves it to; a read whose writer is not among
    ``operations`` returns the initial value, or cannot be placed at all
    when its value is another.  Raises :class:`SearchBudgetExceeded` if
    more than ``budget`` branch nodes (``None``: :data:`BRANCH_BUDGET`)
    are explored.  With ``site`` given, another site's read is not placed:
    it keeps just its reads-from edge, which orders pass through.

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
    # Every edge inserted, in order; a failed branch truncates it.
    edges: List[Tuple[int, int]] = []

    def record_cycle(a: int, b: int) -> None:
        """Edge a -> b failed because b already reaches a: produce the
        cycle a -> b ~~> a from the concrete edges inserted so far."""
        if explain is None:
            return
        adjacency: Dict[int, List[int]] = {}
        for x, y in edges:
            adjacency.setdefault(x, []).append(y)
        # BFS from b to a over inserted edges (every edge that made b
        # reach a was inserted, and recorded, before the first branch).
        parent: Dict[int, int] = {b: -1}
        queue = [b]
        for node in queue:
            if node == a:
                break
            for nxt in adjacency.get(node, ()):
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        path = [a]  # a ... b, followed back through the BFS tree
        while path[-1] != b:
            path.append(parent[path[-1]])
        explain["cycle"] = [ops[i] for i in [a] + path[::-1]]

    def add(a: int, b: int) -> bool:  # explains a cycle before any branch
        if reach.add_edge(a, b):
            edges.append((a, b))
            return True
        if reach.trail is None:
            record_cycle(a, b)
        return False

    for a, b in base_edges:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None or ia == ib:
            continue
        if not add(ia, ib):
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
        if site is not None and op.site != site:
            if iw is not None and not add(iw, i):
                return None, 0
            continue
        if iw is None and op.value != history.initial_value:
            if explain is not None:
                explain["unwritten"] = [op]
            return None, 0
        if iw is not None and not add(iw, i):
            return None, 0
        for j in writes_by_obj.get(op.obj, ()):
            if j == iw:
                continue
            disjunctions.append((i, iw, j))

    cap = BRANCH_BUDGET if budget is None else budget
    left = [cap]
    has = reach.has

    def saturate(work: List[_Disjunction]) -> Optional[List[_Disjunction]]:
        """Apply forced disjuncts to fixpoint.  Returns the still-unresolved
        disjunctions, or None on contradiction."""
        while True:
            changed = False
            remaining: List[_Disjunction] = []
            for (i, iw, j) in work:
                # Disjunction: (w' -> w) or (r -> w'), with r = ops[i],
                # w = ops[iw] (None = the initial value, which precedes
                # everything), w' = ops[j].
                if iw is not None and has(j, iw):
                    continue  # resolved: w' before w
                if has(i, j):
                    continue  # resolved: w' after r
                before_w_impossible = iw is None or has(iw, j)
                after_r_impossible = has(j, i)
                if before_w_impossible and after_r_impossible:
                    # w' forced strictly between w and r.
                    if explain is not None and reach.trail is None:
                        explain["between"] = [
                            ops[x] for x in (iw, j, i) if x is not None]
                    return None
                if before_w_impossible:
                    if not add(i, j):  # force r -> w'
                        return None
                    changed = True
                elif after_r_impossible:
                    if not add(j, iw):  # force w' -> w
                        return None
                    changed = True
                else:
                    remaining.append((i, iw, j))
            work = remaining
            if not changed:
                return work

    def solve(pending: List[_Disjunction]) -> bool:
        left[0] -= 1
        if left[0] < 0:
            raise SearchBudgetExceeded(cap)
        remaining = saturate(pending)
        if remaining is None:
            return False
        if not remaining:
            return True
        i, iw, j = remaining[0]
        assert iw is not None  # iw None is always forced in saturate
        if reach.trail is None:
            reach.trail = []
        # Branch 1: w' -> w; branch 2: r -> w'.  A failed branch undoes
        # its reachability and its edges.
        for a, b in ((j, iw), (i, j)):
            mark, kept = len(reach.trail), len(edges)
            if add(a, b) and solve(remaining[1:]):
                return True
            reach.undo(mark)
            del edges[kept:]
        return False

    solved = solve(disjunctions)
    nodes = cap - left[0]
    if not solved:
        return None, nodes
    # A topological order of (base + forced + branched) edges is a witness.
    return [ops[i] for i in _topological(ops, edges)], nodes


def _topological(
    ops: Sequence[Operation], edges: Iterable[Tuple[int, int]]
) -> List[int]:
    """A topological order of ``edges`` over the indices of ``ops``, the
    least (effective time, index) first among the ready; it stops short of
    a cycle.  An edge given twice counts twice in both directions."""
    n = len(ops)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in edges:
        adjacency[a].append(b)
        indegree[b] += 1
    out: List[int] = []
    heap = [(ops[i].time, i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(heap)
    while heap:
        _, i = heapq.heappop(heap)
        out.append(i)
        for j in adjacency[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (ops[j].time, j))
    return out


def _by_write_order(
    history: History,
    ops: Sequence[Operation],
    edges: Iterable[Tuple[Operation, Operation]],
    site: Optional[int],
) -> Optional[List[Operation]]:
    """A topological order of ``edges``, reads-from, ``co`` (each object's
    writes in (effective time, index) order) and ``fr`` (each placed read,
    every read or only ``site``'s, before the ``co`` successor of the
    write it returns): a legal witness, or ``None`` on a cycle, which
    refutes only this ``co`` (docs/THEORY.md, Result 5)."""
    index = {op: i for i, op in enumerate(ops)}
    graph = [(index[a], index[b]) for a, b in edges
             if a in index and b in index and a is not b]
    # (object, write) -> the write after it in co; None is the initial value.
    after: Dict[Tuple[str, Optional[int]], int] = {}
    last: Dict[str, int] = {}
    for i in sorted(range(len(ops)), key=lambda i: ops[i].time):  # stable
        if ops[i].is_write:
            obj = ops[i].obj
            after[obj, last.get(obj)] = i
            last[obj] = i
    graph += [(w, i) for (_, w), i in after.items() if w is not None]
    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        iw = index.get(history.writer_of(op))
        if iw is not None:
            graph.append((iw, i))
        if site in (None, op.site):
            if iw is None and op.value != history.initial_value:
                return None
            if (op.obj, iw) in after:
                graph.append((i, after[op.obj, iw]))
    order = _topological(ops, graph)
    return [ops[i] for i in order] if len(order) == len(ops) else None


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
    site: Optional[int] = None,
) -> CheckResult:
    """``criterion`` holds iff a legal serialization of ``operations``
    (placing only ``site``'s reads, if given) respects ``edges``.  The
    result carries it as the witness, or else a violation explaining why
    there is none, ending in ``what``.  The recorded write order is tried
    first; ``states_explored`` is the branch nodes the engine used after."""
    edges = list(edges)
    witness = _by_write_order(history, operations, edges, site)
    if witness is not None:
        return CheckResult(criterion, True, witness=witness)
    explain: Dict[str, List[Operation]] = {}
    witness, nodes = find_constrained_serialization(
        history, operations, edges, budget=budget, explain=explain, site=site
    )
    if witness is None:
        return CheckResult(
            criterion,
            False,
            violation=_violation_text(explain, what),
            states_explored=nodes,
        )
    return CheckResult(criterion, True, witness=witness, states_explored=nodes)
