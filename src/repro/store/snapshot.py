"""Compacted snapshots of the object store.

A snapshot is the periodic full-state checkpoint that lets the WAL be
truncated: recovery loads the snapshot and replays only the log suffix
written after it.  The file is one JSON document,

```json
{
  "version": 1,
  "crc": 3735928559,
  "state": {
    "taken_at": 12.75,
    "context": 12.75,
    "clean": false,
    "objects": {
      "x": {"value": "s1.7", "alpha": 12.1, "omega": 12.7, "writer": 1}
    }
  }
}
```

written atomically (tmp + fsync + rename, the shared
:func:`repro.core.io.atomic_write_text` helper) so a crash mid-snapshot
leaves the previous snapshot intact, and checksummed (CRC32 over the
canonical ``state`` serialization) so a torn or rotted file is detected
rather than trusted.  ``taken_at`` and every lifetime live on the
store's *persistent timescale* (see :mod:`repro.store.recovery`);
``clean`` marks a snapshot written by a graceful shutdown — the next
start can skip log replay entirely because the WAL was truncated right
after it.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Optional

from repro.core.io import atomic_write_text
from repro.engine.versions import PhysicalVersion

SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot file that cannot be trusted (bad CRC, bad shape)."""


def _canonical(state: Dict[str, Any]) -> str:
    return json.dumps(state, separators=(",", ":"), sort_keys=True)


def state_from_versions(
    objects: Dict[str, PhysicalVersion],
    *,
    taken_at: float,
    context: float,
    clean: bool = False,
) -> Dict[str, Any]:
    """The JSON-able snapshot state for a live version dict."""
    return {
        "taken_at": taken_at,
        "context": context,
        "clean": clean,
        "objects": {
            obj: {
                "value": version.value,
                "alpha": version.alpha,
                "omega": version.omega,
                "writer": version.writer,
            }
            for obj, version in objects.items()
        },
    }


def versions_from_state(state: Dict[str, Any]) -> Dict[str, PhysicalVersion]:
    """Rebuild the version dict a snapshot state describes."""
    return {
        obj: PhysicalVersion(
            obj,
            fields["value"],
            float(fields["alpha"]),
            float(fields["omega"]),
            int(fields.get("writer", -1)),
        )
        for obj, fields in state.get("objects", {}).items()
    }


def write_snapshot(path: str, state: Dict[str, Any]) -> None:
    """Atomically persist one snapshot state (tmp + rename, CRC).

    The state is serialized once: the document is written around the
    canonical text the CRC covers, ``{"crc":…,"state":<canonical>,
    "version":1}`` on one line (the live server writes a snapshot every
    ``max(SNAPSHOT_EVERY, objects)`` appends).  :func:`load_snapshot` reads it as it
    reads the spaced form earlier versions wrote.  ``repro store
    inspect`` pretty-prints."""
    canonical = _canonical(state)
    atomic_write_text(
        path,
        f'{{"crc":{zlib.crc32(canonical.encode("utf-8"))},"state":{canonical},'
        f'"version":{SNAPSHOT_VERSION}}}\n',
    )


def load_snapshot(path: str) -> Optional[Dict[str, Any]]:
    """Load and CRC-verify a snapshot; ``None`` when no snapshot exists.

    Raises :class:`SnapshotError` on a file that exists but cannot be
    trusted — recovery then quarantines it and falls back to the WAL.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"undecodable snapshot {path}: {exc}") from None
    if not isinstance(document, dict) or "state" not in document:
        raise SnapshotError(f"{path} is not a snapshot file")
    state = document["state"]
    if zlib.crc32(_canonical(state).encode("utf-8")) != document.get("crc"):
        raise SnapshotError(f"snapshot CRC mismatch in {path}")
    return state


def quarantine_snapshot(path: str) -> Optional[str]:
    """Move a corrupt snapshot aside (``*.corrupt-<n>``); returns the
    sidecar path, or ``None`` when there was nothing to move."""
    if not os.path.exists(path):
        return None
    n = 0
    while True:
        sidecar = f"{path}.corrupt-{n}"
        if not os.path.exists(sidecar):
            break
        n += 1
    os.replace(path, sidecar)
    return sidecar
