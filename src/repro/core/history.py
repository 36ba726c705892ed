"""Global histories: program order, reads-from and causal order (Section 2).

``H`` is the partially ordered set of all operations at all sites; ``H_i``
is the sequence of operations executed at site ``i`` (its *program order*);
``H_{i+w}`` is ``H_i`` plus every write in ``H`` (the projection causal
consistency serializes per site).

The causality relation of the paper (Lamport's happened-before adapted to
shared objects): ``a -> b`` iff

1. ``a`` and ``b`` execute at the same site and ``a`` comes first, or
2. ``b`` reads the value that ``a`` wrote, or
3. transitivity.

Because written values are unique (validated here), the reads-from relation
is recoverable from values alone: the read ``r(X)v`` reads from the single
write ``w(X)v``, or from the implicit initial value when ``v`` equals the
initial value and no write produced it.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.operations import Operation

#: The paper's examples use 0 as the initial value of every object.
DEFAULT_INITIAL_VALUE = 0


class HistoryError(ValueError):
    """Raised when a set of operations does not form a valid history."""


class History:
    """An immutable global history over read/write operations.

    Operations are grouped by site; within a site, *list order* is program
    order (effective times must be non-decreasing per site when present).
    """

    def __init__(
        self,
        operations: Iterable[Operation],
        initial_value: Any = DEFAULT_INITIAL_VALUE,
        validate: bool = True,
    ) -> None:
        self.operations: Tuple[Operation, ...] = tuple(operations)
        self.initial_value = initial_value
        self._by_site: Dict[int, List[Operation]] = {}
        for op in self.operations:
            self._by_site.setdefault(op.site, []).append(op)
        # Keep per-site sequences sorted by effective time, preserving input
        # order for ties (stable sort), so program order == time order.
        for site_ops in self._by_site.values():
            site_ops.sort(key=lambda op: op.time)
        self._writes_by_key: Dict[Tuple[str, Any], Operation] = {}
        self._reads_from: Dict[Operation, Optional[Operation]] = {}
        self._causal_preds: Optional[Dict[Operation, FrozenSet[Operation]]] = None
        self._index_writes(validate)
        self._resolve_reads(validate)

    # -- construction helpers ---------------------------------------------

    def _index_writes(self, validate: bool) -> None:
        for op in self.operations:
            if not op.is_write:
                continue
            key = (op.obj, op.value)
            if validate and key in self._writes_by_key:
                raise HistoryError(
                    f"duplicate written value: {op.label()} and "
                    f"{self._writes_by_key[key].label()} (the paper assumes "
                    "each value written is unique)"
                )
            self._writes_by_key[key] = op

    def _resolve_reads(self, validate: bool) -> None:
        for op in self.operations:
            if not op.is_read:
                continue
            writer = self._writes_by_key.get((op.obj, op.value))
            if writer is None:
                if validate and op.value != self.initial_value:
                    raise HistoryError(
                        f"{op.label()} returns a value never written and "
                        f"different from the initial value {self.initial_value!r}"
                    )
                self._reads_from[op] = None
            else:
                self._reads_from[op] = writer

    # -- basic views --------------------------------------------------------

    @property
    def sites(self) -> List[int]:
        """Sorted list of site ids with at least one operation."""
        return sorted(self._by_site)

    @property
    def objects(self) -> List[str]:
        """Sorted list of object names touched by any operation."""
        return sorted({op.obj for op in self.operations})

    def site_ops(self, site: int) -> List[Operation]:
        """``H_i``: the program-order sequence of site ``site``."""
        return list(self._by_site.get(site, []))

    def site_plus_writes(self, site: int) -> List[Operation]:
        """``H_{i+w}``: site ``site``'s operations plus every write in H."""
        local = set(self._by_site.get(site, []))
        out = list(self._by_site.get(site, []))
        out.extend(op for op in self.operations if op.is_write and op not in local)
        return out

    @property
    def reads(self) -> List[Operation]:
        return [op for op in self.operations if op.is_read]

    @property
    def writes(self) -> List[Operation]:
        return [op for op in self.operations if op.is_write]

    def writes_to(self, obj: str) -> List[Operation]:
        """All writes to ``obj``, sorted by effective time."""
        return sorted(
            (op for op in self.writes if op.obj == obj), key=lambda op: op.time
        )

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __repr__(self) -> str:
        return f"History({len(self.operations)} ops, sites={self.sites})"

    # -- relations -----------------------------------------------------------

    def writer_of(self, read_op: Operation) -> Optional[Operation]:
        """The write a read returns the value of, or ``None`` for the
        initial value (unique-values assumption makes this well-defined)."""
        if not read_op.is_read:
            raise ValueError(f"{read_op!r} is not a read")
        return self._reads_from[read_op]

    def immediate_program_order(self) -> List[Tuple[Operation, Operation]]:
        """Adjacent (a, b) pairs in each site's program order, site by
        site."""
        return [
            pair
            for site_ops in self._by_site.values()
            for pair in zip(site_ops, site_ops[1:])
        ]

    def _causal_edges(self) -> Dict[Operation, Set[Operation]]:
        """Direct causal predecessors: program-order predecessor + writer."""
        preds: Dict[Operation, Set[Operation]] = {op: set() for op in self.operations}
        for a, b in self.immediate_program_order():
            preds[b].add(a)
        for read_op, writer in self._reads_from.items():
            if writer is not None:
                preds[read_op].add(writer)
        return preds

    def causal_predecessors(self) -> Dict[Operation, FrozenSet[Operation]]:
        """Transitive causal predecessors of every operation (memoized)."""
        if self._causal_preds is not None:
            return self._causal_preds
        direct = self._causal_edges()
        try:
            order = list(TopologicalSorter(direct).static_order())
        except CycleError:
            raise HistoryError(
                "causal order contains a cycle: some read returns a value "
                "written causally after it"
            ) from None
        closure: Dict[Operation, FrozenSet[Operation]] = {}
        for op in order:
            closure[op] = frozenset(direct[op]).union(
                *(closure[pred] for pred in direct[op]))
        self._causal_preds = closure
        return closure

    def concurrent(self, a: Operation, b: Operation) -> bool:
        """Neither ``a -> b`` nor ``b -> a`` (and ``a is not b``)."""
        if a is b:
            return False
        closure = self.causal_predecessors()
        return a not in closure[b] and b not in closure[a]

    def causal_pairs(self) -> Set[Tuple[Operation, Operation]]:
        """All (a, b) with ``a -> b``."""
        closure = self.causal_predecessors()
        return {(a, b) for b, preds in closure.items() for a in preds}
