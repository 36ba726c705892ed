"""Cluster inspection commands: ``cluster status/watch``."""

from __future__ import annotations

import argparse

from repro.analysis import print_table

def _cluster_fetch(host: str, port: int, timeout: float = 2.0):
    """One status round trip over a bare channel (no clock sync): the
    member's cluster view plus the ring it currently serves."""
    import asyncio

    from repro.net.channel import Channel
    from repro.net.framing import CLUSTER_STATE, RING_FETCH

    async def _fetch():
        # An id no cache client and no member's agent connects under.
        channel = Channel(1_999_999, host, port)
        await channel.open(timeout)
        channel.attach()
        try:
            view = await channel.call({"kind": CLUSTER_STATE}, timeout)
            ring = await channel.call({"kind": RING_FETCH}, timeout)
        finally:
            await channel.close()
        return view, ring

    return asyncio.run(_fetch())


def _print_cluster_status(target: str, view_frame, ring_frame) -> None:
    from repro.cluster import ClusterView

    epoch = view_frame.get("epoch", 0)
    view = view_frame.get("view")
    if view is None:
        print(f"{target}: serving at ring epoch {epoch}, "
              "no cluster agent attached")
        return
    cv = ClusterView.from_dict(view)
    coordinator = cv.coordinator()
    rows = []
    for info in sorted(cv.members.values(), key=lambda m: m.id):
        rows.append({
            "member": f"{info.id}{' *' if info.id == coordinator else ''}",
            "state": info.state,
            "incarnation": info.incarnation,
            "address": info.address,
        })
    print_table(rows, title=f"cluster at {target}: ring epoch {epoch}, "
                f"view epoch {cv.ring_epoch} (* = coordinator)")
    ring = ring_frame.get("ring")
    if ring:
        print(f"ring: {len(ring.get('devices', {}))} devices x "
              f"{ring.get('replicas')} replicas, epoch {ring.get('epoch')}")


def _parse_target(target: str):
    host, _, port = target.rpartition(":")
    return host or "127.0.0.1", int(port)


def cmd_cluster_status(args: argparse.Namespace) -> int:
    host, port = _parse_target(args.target)
    try:
        view_frame, ring_frame = _cluster_fetch(host, port, args.timeout)
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"{args.target}: unreachable ({exc})")
        return 1
    _print_cluster_status(args.target, view_frame, ring_frame)
    return 0


def cmd_cluster_watch(args: argparse.Namespace) -> int:
    import time as _time

    host, port = _parse_target(args.target)
    try:
        while True:
            stamp = _time.strftime("%H:%M:%S")
            try:
                view_frame, ring_frame = _cluster_fetch(
                    host, port, args.timeout
                )
            except (ConnectionError, OSError, TimeoutError) as exc:
                print(f"[{stamp}] {args.target}: unreachable ({exc})")
            else:
                print(f"[{stamp}]")
                _print_cluster_status(args.target, view_frame, ring_frame)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_cluster = sub.add_parser(
        "cluster", help="inspect a live cluster's membership and epoch")
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command",
                                           required=True)

    c_status = cluster_sub.add_parser(
        "status", help="one member's view: states, incarnations, epoch")
    c_status.add_argument("target", help="member address (host:port)")
    c_status.add_argument("--timeout", type=float, default=2.0)
    c_status.set_defaults(func=cmd_cluster_status)

    c_watch = cluster_sub.add_parser(
        "watch", help="poll a member's view until interrupted")
    c_watch.add_argument("target", help="member address (host:port)")
    c_watch.add_argument("--interval", type=float, default=1.0)
    c_watch.add_argument("--timeout", type=float, default=2.0)
    c_watch.set_defaults(func=cmd_cluster_watch)
