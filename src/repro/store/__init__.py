"""repro.store — durable state for the timed object servers.

An append-only write-ahead log (:mod:`repro.store.wal`), CRC-checked
compacted snapshots (:mod:`repro.store.snapshot`), and Δ-aware crash
recovery (:mod:`repro.store.recovery`) that restores not just object
values but the timed-consistency metadata the paper's lifetime protocol
depends on: ``Context_i`` and the version lifetimes.  See docs/STORE.md
for the on-disk formats and the recovery argument.
"""

from repro.store.recovery import (
    DurableStore,
    RecoveredState,
    StoreState,
    history_from_wal,
    load_state,
)
from repro.store.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshot,
    quarantine_snapshot,
    state_from_versions,
    versions_from_state,
    write_snapshot,
)
from repro.store.wal import (
    FSYNC_POLICIES,
    MAX_RECORD_BYTES,
    ReplayResult,
    WalError,
    WriteAheadLog,
    decode_record,
    encode_record,
    quarantine_tail,
    replay,
)

__all__ = [
    "DurableStore",
    "FSYNC_POLICIES",
    "MAX_RECORD_BYTES",
    "RecoveredState",
    "ReplayResult",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "StoreState",
    "WalError",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "history_from_wal",
    "load_snapshot",
    "load_state",
    "quarantine_snapshot",
    "quarantine_tail",
    "replay",
    "state_from_versions",
    "versions_from_state",
    "write_snapshot",
]
