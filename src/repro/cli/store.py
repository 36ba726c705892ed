"""Durable store maintenance commands: ``store inspect/verify/compact``."""

from __future__ import annotations

import argparse

from repro.analysis import print_table

def _store_summary(state) -> dict:
    """JSON-able description of a store directory's state."""
    kinds: dict = {}
    for record in state.wal.records:
        kind = str(record.get("k"))
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "root": state.root,
        "objects": len(state.objects),
        "context": state.context,
        "last_time": state.last_time,
        "clean": state.clean,
        "recoverable": state.recoverable,
        "snapshot": {
            "present": state.snapshot_state is not None,
            "error": state.snapshot_error,
            "taken_at": (
                state.snapshot_state["taken_at"]
                if state.snapshot_state else None
            ),
            "clean": (
                bool(state.snapshot_state.get("clean"))
                if state.snapshot_state else False
            ),
        },
        "wal": {
            "records": len(state.wal.records),
            "records_by_kind": kinds,
            "good_bytes": state.wal.good_bytes,
            "tail_bytes": state.wal.tail_bytes,
            "tail_error": state.wal.tail_error,
        },
    }


def cmd_store_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.store import load_state

    state = load_state(args.dir)
    summary = _store_summary(state)
    if args.json:
        if args.objects:
            summary["object_versions"] = {
                obj: {"value": v.value, "alpha": v.alpha,
                      "omega": v.omega, "writer": v.writer}
                for obj, v in sorted(state.objects.items())
            }
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    snap = summary["snapshot"]
    wal = summary["wal"]
    print(f"store {state.root}: {summary['objects']} objects, "
          f"context={state.context:.3f}, last persisted t={state.last_time:.3f}")
    if snap["error"]:
        print(f"snapshot: CORRUPT ({snap['error']})")
    elif snap["present"]:
        print(f"snapshot: taken at t={snap['taken_at']:.3f}"
              f"{' (clean shutdown)' if snap['clean'] else ''}")
    else:
        print("snapshot: none")
    by_kind = ", ".join(
        f"{count} {kind}" for kind, count in sorted(wal["records_by_kind"].items())
    ) or "empty"
    print(f"wal: {wal['records']} records ({by_kind}), "
          f"{wal['good_bytes']} bytes")
    if wal["tail_bytes"]:
        print(f"wal tail: {wal['tail_bytes']} unusable bytes "
              f"({wal['tail_error']}) — recovery will quarantine them")
    if args.objects and state.objects:
        print_table([
            {"obj": obj, "value": v.value, "alpha": round(v.alpha, 4),
             "omega": round(v.omega, 4), "writer": v.writer}
            for obj, v in sorted(state.objects.items())
        ], title="recovered object versions")
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    """Exit 0 when the store recovers, 1 under ``--strict`` when recovery
    would have to discard bytes, 2 when committed state is lost."""
    from repro.store import load_state

    state = load_state(args.dir)
    problems = []
    if state.snapshot_error is not None:
        problems.append(f"snapshot: {state.snapshot_error}")
    if state.wal.tail_bytes:
        problems.append(
            f"wal: {state.wal.tail_bytes} torn-tail bytes "
            f"({state.wal.tail_error})"
        )
    old = []
    if args.delta is not None:
        bound = state.last_time - args.delta
        old = sorted(
            obj for obj, v in state.objects.items() if v.omega < bound
        )
    if not state.recoverable:
        print(f"UNRECOVERABLE {args.dir}: corrupt snapshot and no "
              "write-ahead log to rebuild from")
        for problem in problems:
            print(f"  {problem}")
        return 2
    status = "OK" if not problems else "RECOVERABLE"
    print(f"{status} {args.dir}: {len(state.objects)} objects, "
          f"{state.write_records} logged writes, "
          f"context={state.context:.3f}")
    for problem in problems:
        print(f"  {problem}")
    if args.delta is not None:
        print(f"  recovery at delta={args.delta:g} would mark "
              f"{len(old)} versions old"
              + (f": {', '.join(old)}" if old else ""))
    if problems and args.strict:
        return 1
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Offline compaction: recover, write one clean snapshot, truncate
    the log.  The next start then replays nothing."""
    import os

    from repro.store import DurableStore

    wal_path = os.path.join(args.dir, "wal.log")
    before = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
    store = DurableStore(args.dir, fsync="always")
    recovered = store.open()
    store.snapshot(recovered.context, now=recovered.resume_time, clean=True)
    store.close()
    after = os.path.getsize(wal_path)
    print(f"compacted {args.dir}: {len(recovered.objects)} objects "
          f"into the snapshot, wal {before} -> {after} bytes"
          + (f", quarantined {recovered.quarantined_bytes} torn bytes"
             if recovered.quarantined_bytes else ""))
    return 0


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_store = sub.add_parser(
        "store", help="durable store maintenance (docs/STORE.md)")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    s_inspect = store_sub.add_parser(
        "inspect", help="summarize a store directory (snapshot, WAL, state)")
    s_inspect.add_argument("dir", help="store directory")
    s_inspect.add_argument("--objects", action="store_true",
                           help="also list the recovered object versions")
    s_inspect.add_argument("--json", action="store_true")
    s_inspect.set_defaults(func=cmd_store_inspect)

    s_verify = store_sub.add_parser(
        "verify", help="check that a store recovers (exit 0/1/2)")
    s_verify.add_argument("dir", help="store directory")
    s_verify.add_argument("--delta", type=float, default=None,
                          help="also report what recovery at this freshness "
                          "bound would mark old")
    s_verify.add_argument("--strict", action="store_true",
                          help="exit 1 when recovery would discard bytes "
                          "(torn WAL tail or corrupt snapshot)")
    s_verify.set_defaults(func=cmd_store_verify)

    s_compact = store_sub.add_parser(
        "compact", help="fold the WAL into one clean snapshot (offline)")
    s_compact.add_argument("dir", help="store directory")
    s_compact.set_defaults(func=cmd_store_compact)
