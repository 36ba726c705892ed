"""Compacted snapshots of the object store (format and rules: docs/STORE.md).

A snapshot is the checkpoint that lets the WAL be truncated: recovery
loads it and replays only the log written after it.  It is in the log's
codec, so :func:`~repro.store.wal.replay` reads it: a header record
``{"k": "snapshot", "taken_at", "context", "clean", "objects": N}``,
then N records, each the log record of one object's installed version
as :class:`~repro.store.recovery.DurableStore` kept it from the append,
so taking one encodes the header alone.  A record has no ``omega``: a
loaded version's ``omega`` is its ``alpha``.  The log's ``wal-fsync``
thread writes it atomically (:func:`repro.core.io.atomic_write_bytes`)
and empties the log only after.  A file with a bad CRC, a tail or a
wrong count is refused.  ``snapshot.json`` is the name of the earlier
format, one JSON document with a CRC over its canonical ``state``,
which still loads: its first byte is ``{`` where a record's is 0.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import List, Optional

from repro.store.wal import ReplayResult, encode_record, replay, sidecar_path

#: The kind of a snapshot's header record.
REC_SNAPSHOT = "snapshot"


class SnapshotError(Exception):
    """A snapshot file that cannot be trusted (bad CRC, bad shape)."""


def snapshot_bytes(
    records: List[bytes], *, taken_at: float, context: float, clean: bool
) -> bytes:
    """The snapshot file of ``records``, each one object's encoded log
    record: its header, the one record encoded here, then theirs."""
    header = encode_record({
        "k": REC_SNAPSHOT, "taken_at": taken_at, "context": context,
        "clean": clean, "objects": len(records),
    })
    return b"".join([header, *records])


def load_snapshot(path: str) -> Optional[ReplayResult]:
    """Load and check a snapshot: its header record, then one ``w``
    record per object, each with its bytes; ``None`` when no snapshot
    exists.  A file of the earlier format is checked against its CRC and
    read as its objects' records, encoded here, ``omega`` dropped.

    Raises :class:`SnapshotError` on a file that exists but cannot be
    trusted — recovery then quarantines it and falls back to the WAL.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    snapshot = replay(path) if data[:1] != b"{" else _from_json(path, data)
    header = snapshot.records[0] if snapshot.records else {}
    if (not snapshot.clean or header.get("k") != REC_SNAPSHOT
            or header.get("objects") != len(snapshot.records) - 1):
        raise SnapshotError(
            f"{path} is not a whole snapshot: {snapshot.tail_error or 'bad header'}")
    return snapshot


def _from_json(path: str, data: bytes) -> ReplayResult:
    try:
        document = json.loads(data.decode("utf-8"))
        state = document["state"]
        records = [{"k": REC_SNAPSHOT, "taken_at": state["taken_at"],
                    "context": state["context"], "clean": bool(state.get("clean")),
                    "objects": len(state["objects"])}]
        records += [{"k": "w", "obj": obj, "t": fields["alpha"], "value": fields["value"],
                     "writer": fields.get("writer", -1)}
                    for obj, fields in state["objects"].items()]
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise SnapshotError(f"{path} is not a snapshot file: {exc!r}") from None
    canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
    if zlib.crc32(canonical.encode("utf-8")) != document.get("crc"):
        raise SnapshotError(f"snapshot CRC mismatch in {path}")
    return ReplayResult(records, [encode_record(record) for record in records])

def quarantine_snapshot(path: str) -> Optional[str]:
    """Move a corrupt snapshot aside (``*.corrupt-<n>``); returns the
    sidecar path, or ``None`` when there was nothing to move."""
    if not os.path.exists(path):
        return None
    sidecar = sidecar_path(path, "corrupt")
    os.replace(path, sidecar)
    return sidecar
