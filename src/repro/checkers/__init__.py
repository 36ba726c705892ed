"""Consistency checkers: LIN, SC, CC and the paper's TSC/TCC.

Quick start::

    from repro.core import History, read, write
    from repro.checkers import check_sc, check_tsc

    h = History([
        write(0, "X", 7, 10.0),
        read(1, "X", 7, 200.0),
    ])
    assert check_sc(h)
    assert check_tsc(h, delta=250.0)
"""

from repro.checkers.cc import check_cc
from repro.checkers.hierarchy import (
    CONTAINMENTS,
    Classification,
    Judgement,
    census,
    classify,
    hierarchy_violations,
    judge,
)
from repro.checkers.extensions import (
    check_coherence,
    check_pram,
    check_processor,
    check_timed,
)
from repro.checkers.lin import check_interval_linearizability, check_lin
from repro.checkers.result import CheckResult, SearchBudgetExceeded
from repro.checkers.sc import check_sc
from repro.checkers.sessions import (
    SessionViolation,
    satisfies_session_guarantees,
    session_guarantee_report,
)
from repro.checkers.tcc import check_tcc, check_tcc_logical
from repro.checkers.transactions import (
    Transaction,
    check_serializability,
    check_strict_serializability,
    singleton_transactions,
    transaction,
)
from repro.checkers.threshold import (
    ThresholdReport,
    delta_spectrum,
    tcc_logical_threshold,
    tcc_threshold,
    threshold_report,
    tsc_threshold,
)
from repro.checkers.tsc import check_tsc

# The WAL-to-history loader lives with the store (it understands the
# on-disk formats) but is a checker input builder, so it is part of this
# namespace too: feed a recovered log straight to check_tsc/check_tcc.
from repro.store.recovery import history_from_wal

__all__ = [
    "CONTAINMENTS",
    "CheckResult",
    "Classification",
    "Judgement",
    "SearchBudgetExceeded",
    "SessionViolation",
    "ThresholdReport",
    "Transaction",
    "census",
    "check_cc",
    "check_coherence",
    "check_interval_linearizability",
    "check_lin",
    "check_pram",
    "check_processor",
    "check_sc",
    "check_serializability",
    "check_strict_serializability",
    "check_tcc",
    "check_tcc_logical",
    "check_timed",
    "check_tsc",
    "classify",
    "delta_spectrum",
    "hierarchy_violations",
    "history_from_wal",
    "judge",
    "satisfies_session_guarantees",
    "session_guarantee_report",
    "singleton_transactions",
    "tcc_logical_threshold",
    "tcc_threshold",
    "threshold_report",
    "transaction",
    "tsc_threshold",
]
