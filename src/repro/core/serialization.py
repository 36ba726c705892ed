"""Serializations and legality (Section 2).

A *serialization* of a set of operations ``D`` is a linear sequence ``S``
containing exactly the operations of ``D`` such that each read of an object
returns the value written by the most recent preceding write to that object
in ``S`` (or the initial value if no write precedes it).  ``S`` *respects* a
partial order ``~`` iff ``a ~ b`` implies ``a`` precedes ``b`` in ``S``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.history import DEFAULT_INITIAL_VALUE, History
from repro.core.operations import Operation


def first_legality_violation(
    sequence: Sequence[Operation],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
) -> Optional[Operation]:
    """Return the first read violating legality, or ``None`` if legal.

    Legality: every read returns the value of the most recent write to the
    same object earlier in the sequence, or ``initial_value`` if there is
    no such write.
    """
    last_value: Dict[str, Any] = {}
    for op in sequence:
        if op.is_write:
            last_value[op.obj] = op.value
        else:
            expected = last_value.get(op.obj, initial_value)
            if op.value != expected:
                return op
    return None


def time_order_witness(history: History) -> Optional[List[Operation]]:
    """The history in effective-time order if that order is legal, else
    ``None``.

    The sort is stable, so equal times keep their position and each
    site's operations keep their program order.  A legal time order is a
    witness for LIN, hence (Figure 4a) for SC, and, restricted to
    ``H_{i+w}``, for CC: every checker tries it before searching.
    """
    order = sorted(history.operations, key=attrgetter("time"))
    if first_legality_violation(order, history.initial_value) is None:
        return order
    return None


def is_legal(
    sequence: Sequence[Operation],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
) -> bool:
    """``True`` iff the sequence is a legal serialization of its operations."""
    return first_legality_violation(sequence, initial_value) is None


def respects(
    sequence: Sequence[Operation],
    order_pairs: Iterable[Tuple[Operation, Operation]],
) -> bool:
    """``True`` iff for every (a, b) in ``order_pairs``, a precedes b in
    ``sequence``.  Pairs whose endpoints are not both in the sequence are
    ignored (this is what "respects" means when serializing a subset)."""
    position = {op: i for i, op in enumerate(sequence)}
    for a, b in order_pairs:
        pa, pb = position.get(a), position.get(b)
        if pa is not None and pb is not None and pa >= pb:
            return False
    return True


def respects_program_order(sequence: Sequence[Operation]) -> bool:
    """``True`` iff same-site operations keep their effective-time order."""
    last_time: Dict[int, float] = {}
    for op in sequence:
        prev = last_time.get(op.site)
        if prev is not None and op.time < prev:
            return False
        last_time[op.site] = op.time
    return True


def respects_effective_times(sequence: Sequence[Operation]) -> bool:
    """``True`` iff the sequence is sorted by effective time (the real-time
    order linearizability must respect; ties may appear in either order)."""
    return all(a.time <= b.time for a, b in zip(sequence, sequence[1:]))


def reads_from_in(
    sequence: Sequence[Operation],
    initial_value: Any = DEFAULT_INITIAL_VALUE,
) -> Dict[Operation, Optional[Operation]]:
    """Map each read in a *legal* sequence to the write it reads from
    (``None`` = initial value)."""
    last_write: Dict[str, Operation] = {}
    out: Dict[Operation, Optional[Operation]] = {}
    for op in sequence:
        if op.is_write:
            last_write[op.obj] = op
        else:
            out[op] = last_write.get(op.obj)
    return out


class Serialization:
    """A convenience wrapper bundling a sequence with its checks.

    >>> from repro.core.operations import read, write
    >>> w = write(0, "X", 1, 1.0); r = read(1, "X", 1, 2.0)
    >>> s = Serialization([w, r])
    >>> s.is_legal()
    True
    """

    def __init__(
        self,
        sequence: Sequence[Operation],
        initial_value: Any = DEFAULT_INITIAL_VALUE,
    ) -> None:
        self.sequence: Tuple[Operation, ...] = tuple(sequence)
        self.initial_value = initial_value
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("serialization contains a duplicated operation")

    def is_legal(self) -> bool:
        return is_legal(self.sequence, self.initial_value)

    def respects(self, pairs: Iterable[Tuple[Operation, Operation]]) -> bool:
        return respects(self.sequence, pairs)

    def respects_program_order(self) -> bool:
        return respects_program_order(self.sequence)

    def respects_effective_times(self) -> bool:
        return respects_effective_times(self.sequence)

    def covers(self, ops: Iterable[Operation]) -> bool:
        """``True`` iff the sequence contains exactly the given operations."""
        return set(self.sequence) == set(ops)

    def __len__(self) -> int:
        return len(self.sequence)

    def __iter__(self):
        return iter(self.sequence)

    def __repr__(self) -> str:
        inner = " ".join(op.label() for op in self.sequence)
        return f"Serialization[{inner}]"


def merge_by_time(groups: Iterable[Sequence[Operation]]) -> List[Operation]:
    """Merge several already-ordered operation groups by effective time
    (stable; a handy starting candidate for serialization searches)."""
    ops: List[Operation] = []
    for group in groups:
        ops.extend(group)
    ops.sort(key=lambda op: op.time)
    return ops
