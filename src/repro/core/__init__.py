"""Core model: operations, histories, serializations, and reading on time."""

from repro.core.history import DEFAULT_INITIAL_VALUE, History, HistoryError
from repro.core.io import dump_history, dumps_history, load_history
from repro.core.render import render_serialization, render_timeline
from repro.core.operations import Operation, OpKind, read, write
from repro.core.serialization import (
    Serialization,
    first_legality_violation,
    is_legal,
    reads_from_in,
    respects,
    respects_program_order,
    time_order_witness,
)
from repro.core.timed import (
    INFINITE_DELTA,
    is_timed_serialization,
    late_reads,
    min_timed_delta,
    min_timed_delta_logical,
    read_occurs_on_time,
    required_delta,
    w_r_set,
    w_r_set_logical,
)

__all__ = [
    "DEFAULT_INITIAL_VALUE",
    "History",
    "HistoryError",
    "INFINITE_DELTA",
    "OpKind",
    "Operation",
    "Serialization",
    "dump_history",
    "dumps_history",
    "first_legality_violation",
    "is_legal",
    "is_timed_serialization",
    "late_reads",
    "load_history",
    "min_timed_delta",
    "min_timed_delta_logical",
    "read",
    "read_occurs_on_time",
    "reads_from_in",
    "render_serialization",
    "render_timeline",
    "required_delta",
    "respects",
    "respects_program_order",
    "time_order_witness",
    "w_r_set",
    "w_r_set_logical",
    "write",
]
