"""Observability commands: ``obs dump/serve/diff``."""

from __future__ import annotations

import argparse
import sys

from repro.analysis import print_table

def cmd_obs_dump(args: argparse.Namespace) -> int:
    import json

    from repro.obs.expo import render_prometheus, snapshot_rows
    from repro.obs.metrics import load_snapshot

    if args.demo:
        from repro.net.workloads import run_ring_soak
        from repro.obs.metrics import Registry

        registry = Registry()
        run_ring_soak(
            n_servers=2, replicas=2, n_clients=2, rounds=10,
            delta=0.5, seed=args.seed, registry=registry,
        )
        snapshot = registry.snapshot()
    elif args.snapshot:
        snapshot = load_snapshot(args.snapshot)
    else:
        print("error: give a SNAPSHOT file or --demo", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    elif args.table:
        print_table(snapshot_rows(snapshot), title="registry snapshot")
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def cmd_obs_serve(args: argparse.Namespace) -> int:
    """Serve a saved registry snapshot on a static ``/metrics`` endpoint
    (dashboard and scrape-tooling development against recorded data)."""
    from repro.cli.net import run_until_signalled
    from repro.obs.metrics import Registry, load_snapshot

    snapshot = load_snapshot(args.snapshot)
    registry = Registry()
    registry.register_collector(lambda: snapshot["metrics"])

    async def start():
        print(f"serving {args.snapshot}")

        async def drain() -> None:
            pass

        return None, drain

    run_until_signalled(start, registry, args.host, args.port)
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.expo import render_prometheus, snapshot_rows
    from repro.obs.metrics import diff_snapshots, load_snapshot

    diff = diff_snapshots(load_snapshot(args.before), load_snapshot(args.after))
    if args.json:
        print(json.dumps(diff, indent=1, sort_keys=True))
    elif args.prometheus:
        print(render_prometheus(diff), end="")
    else:
        rows = [row for row in snapshot_rows(diff) if row["value"] != 0]
        print_table(rows, title=f"{args.after} - {args.before} "
                    "(zero rows omitted)")
    return 0


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_obs = sub.add_parser(
        "obs", help="observability: snapshots, /metrics, diffs "
        "(docs/OBSERVABILITY.md)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    o_dump = obs_sub.add_parser(
        "dump", help="render a registry snapshot (Prometheus text)")
    o_dump.add_argument("snapshot", nargs="?", default=None,
                        help="snapshot file (repro ring soak "
                        "--metrics-snapshot)")
    o_dump.add_argument("--demo", action="store_true",
                        help="run a small instrumented ring soak and dump "
                        "its registry instead")
    o_dump.add_argument("--seed", type=int, default=7)
    o_dump.add_argument("--json", action="store_true",
                        help="emit the snapshot JSON instead")
    o_dump.add_argument("--table", action="store_true",
                        help="render as a flat table instead")
    o_dump.set_defaults(func=cmd_obs_dump)

    o_serve = obs_sub.add_parser(
        "serve", help="serve a saved snapshot on /metrics")
    o_serve.add_argument("snapshot", help="snapshot file to serve")
    o_serve.add_argument("--host", default="127.0.0.1")
    o_serve.add_argument("--port", type=int, default=9464)
    o_serve.set_defaults(func=cmd_obs_serve)

    o_diff = obs_sub.add_parser(
        "diff", help="counter/histogram deltas between two snapshots")
    o_diff.add_argument("before")
    o_diff.add_argument("after")
    o_diff.add_argument("--json", action="store_true")
    o_diff.add_argument("--prometheus", action="store_true",
                        help="render the diff as Prometheus text")
    o_diff.set_defaults(func=cmd_obs_diff)
