"""JSON (de)serialization of histories.

A portable trace format so executions can be captured in one process (or
by another tool entirely) and checked by the CLI:

```json
{
  "initial_value": 0,
  "operations": [
    {"kind": "w", "site": 0, "obj": "x", "value": 7, "time": 100.0},
    {"kind": "r", "site": 2, "obj": "x", "value": 1, "time": 140.0,
     "ltime": [1, 0, 2]}
  ]
}
```

``ltime`` (optional) is a vector timestamp as a list of ints; ``start``/
``end`` (optional) record the execution interval.  Values may be any JSON
scalar; the unique-written-values assumption is validated on load.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, Optional, Union

from repro.clocks.vector import VectorTimestamp
from repro.core.history import History
from repro.core.operations import Operation, OpKind


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via tmp + rename, so a reader (or a
    crash) never observes a torn file.

    The payload is fully written and (by default) fsynced to a sibling
    ``<path>.tmp``, then moved over ``path`` with :func:`os.replace`,
    which is atomic on POSIX, and the directory is fsynced.  Used by the
    store snapshots (:mod:`repro.store.snapshot`) and registry snapshot
    saves (:meth:`repro.obs.metrics.Registry.save`) — any file another
    process may read while we rewrite it should go through here.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_directory(os.path.dirname(os.path.abspath(path)))


def atomic_write_json(
    path: str,
    payload: Any,
    *,
    indent: Optional[int] = 1,
    sort_keys: bool = True,
    fsync: bool = True,
) -> None:
    """Atomic (tmp + rename) JSON dump; see :func:`atomic_write_bytes`.

    Serialization happens *before* the file is touched, so an
    unserializable payload leaves any existing file intact.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"), fsync=fsync)


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def operation_to_dict(op: Operation) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": op.kind.value,
        "site": op.site,
        "obj": op.obj,
        "value": op.value,
        "time": op.time,
    }
    if op.start is not None:
        out["start"] = op.start
    if op.end is not None:
        out["end"] = op.end
    if op.ltime is not None:
        entries = getattr(op.ltime, "entries", None)
        if entries is None:
            raise ValueError(
                f"cannot serialize logical timestamp of type "
                f"{type(op.ltime).__name__}; only vector timestamps are portable"
            )
        out["ltime"] = list(entries)
    return out


def operation_from_dict(data: Dict[str, Any]) -> Operation:
    try:
        kind = OpKind(data["kind"])
        return Operation(
            kind=kind,
            site=int(data["site"]),
            obj=str(data["obj"]),
            value=data["value"],
            time=float(data["time"]),
            start=data.get("start"),
            end=data.get("end"),
            ltime=VectorTimestamp(data["ltime"]) if "ltime" in data else None,
        )
    except KeyError as missing:
        raise ValueError(f"operation record is missing field {missing}") from None


def history_to_dict(history: History) -> Dict[str, Any]:
    return {
        "initial_value": history.initial_value,
        "operations": [
            operation_to_dict(op)
            # A stable sort: simultaneous operations keep the history's order.
            for op in sorted(history.operations, key=lambda o: o.time)
        ],
    }


def history_from_dict(data: Dict[str, Any], validate: bool = True) -> History:
    ops = [operation_from_dict(item) for item in data.get("operations", [])]
    return History(ops, initial_value=data.get("initial_value", 0), validate=validate)


def dump_history(history: History, fp: Union[str, IO[str]], indent: int = 2) -> None:
    """Write a history as JSON to a path or file object."""
    payload = history_to_dict(history)
    if isinstance(fp, str):
        with open(fp, "w") as fh:
            json.dump(payload, fh, indent=indent)
    else:
        json.dump(payload, fp, indent=indent)


def load_history(fp: Union[str, IO[str]], validate: bool = True) -> History:
    """Read a history from a JSON path or file object."""
    if isinstance(fp, str):
        with open(fp) as fh:
            data = json.load(fh)
    else:
        data = json.load(fp)
    return history_from_dict(data, validate=validate)


def dumps_history(history: History) -> str:
    """Serialize a history to a JSON string."""
    return json.dumps(history_to_dict(history), indent=2)
