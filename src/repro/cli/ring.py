"""Consistent-hash ring commands: ``ring build/add/rebalance/serve-set/soak``."""

from __future__ import annotations

import argparse

from repro.analysis import print_table

def _parse_kv(pairs, what):
    """``ID=VALUE`` repeatable options -> {int id: str value}."""
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"error: --{what} expects ID=VALUE, got {pair!r}")
        out[int(key)] = value
    return out


def _print_ring_summary(ring, moved=None) -> None:
    rows = []
    load = ring.load()
    for dev_id in ring.device_ids():
        dev = ring.device(dev_id)
        rows.append({
            "device": dev_id, "weight": dev.weight, "zone": dev.zone,
            "address": dev.address or "-", "partitions": load[dev_id],
        })
    title = (f"ring: 2^{ring.part_power} partitions x {ring.replicas} replicas"
             + (f", {moved} slots moved" if moved is not None else ""))
    print_table(rows, title=title)


def cmd_ring_build(args: argparse.Namespace) -> int:
    from repro.ring import RingBuilder

    builder = RingBuilder(args.part_power, args.replicas)
    weights = _parse_kv(args.weight, "weight")
    addresses = _parse_kv(args.address, "address")
    for dev_id in range(args.devices):
        builder.add_device(
            dev_id,
            weight=float(weights.get(dev_id, 1.0)),
            address=addresses.get(dev_id, ""),
        )
    ring, moved = builder.rebalance()
    builder.save(args.builder)
    print(f"wrote {args.builder}")
    if args.ring:
        ring.save(args.ring)
        print(f"wrote {args.ring}")
    _print_ring_summary(ring, moved)
    return 0


def cmd_ring_add(args: argparse.Namespace) -> int:
    from repro.ring import RingBuilder

    builder = RingBuilder.load_file(args.builder)
    builder.rebalance()  # balance first: the count below is the join's alone
    new_id = builder.add_device(
        args.id, weight=args.weight, zone=args.zone, address=args.address
    )
    new_ring, moved = builder.rebalance()
    builder.save(args.builder)
    print(f"updated {args.builder}")
    if args.ring:
        new_ring.save(args.ring)
        print(f"wrote {args.ring}")
    # A new device held nothing: every slot it holds moved to it.
    print(f"device {new_id} joined: {moved} slots moved "
          f"({new_ring.load()[new_id]} to the new device)")
    _print_ring_summary(new_ring, moved)
    return 0


def cmd_ring_rebalance(args: argparse.Namespace) -> int:
    from repro.ring import RingBuilder

    builder = RingBuilder.load_file(args.builder)
    # A builder saved before its moves settled settles on load, and what
    # that moves is moved by this command too.
    ring, moved = builder.rebalance()
    for dev_id, weight in _parse_kv(args.set_weight, "set-weight").items():
        builder.set_weight(dev_id, float(weight))
        ring, batch = builder.rebalance()
        moved += batch
    for dev_id in args.remove or ():
        builder.remove_device(dev_id)
        ring, batch = builder.rebalance()
        moved += batch
    in_place = not (args.set_weight or args.remove)
    if in_place:
        ring, batch = builder.rebalance()
        moved += batch
        print(f"rebalanced in place: {moved} slots moved")
    builder.save(args.builder)
    print(f"updated {args.builder}")
    if args.ring:
        ring.save(args.ring)
        print(f"wrote {args.ring}")
    if moved and not in_place:
        print(f"{moved} slots moved")
    _print_ring_summary(ring)
    return 0


def cmd_ring_serve_set(args: argparse.Namespace) -> int:
    """Serve every device of a ring file in one process (one server per
    device; ports from the device addresses, else sequential)."""
    import os

    from repro.cli.net import serve_devices
    from repro.ring import Ring

    ring = Ring.load_file(args.ring)
    devices = {}
    for index, dev_id in enumerate(ring.device_ids()):
        address = ring.device(dev_id).address
        if address:
            host, _, port = address.rpartition(":")
            host, port = host or args.host, int(port)
        else:
            host, port = args.host, args.base_port + index
        store_dir = (os.path.join(args.store_dir, f"dev{dev_id}")
                     if args.store_dir else None)
        devices[dev_id] = (host, port, store_dir)
    serve_devices(args, devices, ring=ring)
    return 0


def cmd_ring_soak(args: argparse.Namespace) -> int:
    from repro.net.workloads import run_ring_soak

    registry = None
    if (args.metrics_port is not None or args.metrics_snapshot
            or args.metrics):
        from repro.obs.metrics import Registry

        registry = Registry()
        if args.metrics_port is not None:
            print(f"metrics on http://127.0.0.1:{args.metrics_port}/metrics "
                  "for the soak's duration")
    report = run_ring_soak(
        n_servers=args.servers, replicas=args.replicas,
        n_clients=args.clients, part_power=args.part_power,
        delta=args.delta, rounds=args.rounds, duration=args.duration,
        think=args.think,
        write_fraction=args.write_fraction, skew=args.skew,
        server_skew=args.server_skew, seed=args.seed,
        write_quorum=args.quorum, read_policy=args.read_policy,
        add_device_midway=args.grow,
        cluster=args.cluster or args.kill_primary or args.grow,
        probe_period=args.probe_period,
        suspect_timeout=args.suspect_timeout,
        kill_primary_midway=args.kill_primary,
        registry=registry, metrics_port=args.metrics_port,
        store_root=args.store_dir, fsync=args.fsync,
        pipeline_depth=args.pipeline_depth,
    )
    rows = []
    load = report.ring.load()
    for dev_id in report.ring.device_ids():
        rows.append({
            "device": dev_id, "partitions": load[dev_id],
            "reads": report.reads_by_device.get(dev_id, 0),
            "writes": report.writes_by_device.get(dev_id, 0),
            "requests": report.server_requests.get(dev_id, 0),
        })
    print_table(rows, title=f"ring soak: {args.servers} servers x "
                f"{args.replicas} replicas, {args.clients} clients, "
                f"delta={args.delta:g}")
    queued, done, late_repairs = report.repairs()
    if args.grow:
        print(f"\nmid-run growth: device {max(report.ring.devices)} "
              f"joined at ring epoch {report.ring.epoch}; every router "
              f"held it {report.join_seconds:.3f}s after it started")
    fault = report.fault
    if fault is not None:
        ttd = (f"{fault.time_to_detect:.3f}s"
               if fault.time_to_detect is not None else "never")
        ttr = (f"{fault.time_to_recover:.3f}s"
               if fault.time_to_recover is not None else "never")
        print(f"\nkilled device {fault.killed_device} mid-run: "
              f"detected in {ttd}, first write re-acked in {ttr} "
              f"(bound {fault.detection_bound:.3f}s); "
              f"{fault.promotions} promotions, failed over to ring "
              f"epoch {fault.failover_epoch}")
    print(f"\nclock-sync epsilon (composed across servers): "
          f"{report.epsilon:.6f}s")
    print(f"off-ring reads: {report.off_ring_reads}; "
          f"anti-entropy repairs: {queued} queued, {done} done, "
          f"{late_repairs} late")
    print(f"unmatched reads dropped from the trace: {report.unmatched_reads}")
    late = len(report.late_reads)
    total = len(report.history.reads)
    checked = report.tsc if args.criterion == "tsc" else report.tcc
    print(f"recorded trace: SC {'holds' if report.sc.satisfied else 'VIOLATED'}; "
          f"{args.criterion.upper()}(delta={args.delta:g}) "
          f"{'SATISFIED' if checked.satisfied else 'VIOLATED'}; "
          f"{late}/{total} reads late")
    if checked.violation:
        print(f"  {checked.violation}")
    ok = checked.satisfied and report.off_ring_reads == 0
    if fault is not None:
        ok = ok and fault.time_to_recover is not None
    if report.ontime is not None:
        o = report.ontime
        judged = o["reads_on_time"] + o["reads_late"]
        print(f"\nlive instruments: on-time ratio "
              f"{o['ontime_ratio']:.4f} ({o['reads_on_time']}/{judged} "
              f"judged, {o['reads_unjudged']} outside the window), "
              f"epsilon={o['epsilon']:.6f}s, "
              f"visibility lag p99={o['lag_p99']:.4f}s")
        # The online judgement must agree with the offline Definition-2
        # verdicts: zero late reads online iff the offline checker
        # flagged none.  Unjudged reads (writer evicted from the bounded
        # window) are the documented tolerance and count neither way.
        offline_late = len(report.late_reads)
        agree = (o["reads_late"] == 0) == (offline_late == 0)
        print(f"online/offline agreement: "
              f"{'AGREE' if agree else 'DISAGREE'} "
              f"(live late={o['reads_late']}, offline late={offline_late})")
        ok = ok and agree
    if args.metrics_snapshot and registry is not None:
        registry.save(args.metrics_snapshot)
        print(f"wrote registry snapshot to {args.metrics_snapshot}")
    return 0 if ok else 1


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_ring = sub.add_parser(
        "ring", help="consistent-hash ring management (docs/RING.md)")
    ring_sub = p_ring.add_subparsers(dest="ring_command", required=True)

    r_build = ring_sub.add_parser("build", help="create a ring builder file")
    r_build.add_argument("builder", help="builder file to write (JSON)")
    r_build.add_argument("--part-power", type=int, default=8)
    r_build.add_argument("--replicas", type=int, default=1)
    r_build.add_argument("--devices", type=int, required=True,
                         help="number of devices (ids 0..N-1)")
    r_build.add_argument("--weight", action="append", metavar="ID=W",
                         help="per-device weight (default 1.0; repeatable)")
    r_build.add_argument("--address", action="append", metavar="ID=HOST:PORT",
                         help="per-device server address (repeatable)")
    r_build.add_argument("--ring", default=None,
                         help="also write the balanced ring to this file")
    r_build.set_defaults(func=cmd_ring_build)

    r_add = ring_sub.add_parser("add", help="add a device and rebalance")
    r_add.add_argument("builder", help="builder file to update")
    r_add.add_argument("--id", type=int, default=None,
                       help="device id (default: next free)")
    r_add.add_argument("--weight", type=float, default=1.0)
    r_add.add_argument("--zone", type=int, default=0)
    r_add.add_argument("--address", default="")
    r_add.add_argument("--ring", default=None,
                       help="write the new ring to this file")
    r_add.set_defaults(func=cmd_ring_add)

    r_reb = ring_sub.add_parser(
        "rebalance", help="reweight/remove devices and rebalance")
    r_reb.add_argument("builder", help="builder file to update")
    r_reb.add_argument("--set-weight", action="append", metavar="ID=W",
                       help="change a device's weight (repeatable)")
    r_reb.add_argument("--remove", action="append", type=int, metavar="ID",
                       help="remove a device (repeatable)")
    r_reb.add_argument("--ring", default=None,
                       help="write the new ring to this file")
    r_reb.set_defaults(func=cmd_ring_rebalance)

    r_serve = ring_sub.add_parser(
        "serve-set", help="serve every device of a ring file (one process)")
    r_serve.add_argument("ring", help="ring file (repro ring build --ring)")
    r_serve.add_argument("--host", default="127.0.0.1")
    r_serve.add_argument("--base-port", type=int, default=7459,
                         help="first port for devices without an address")
    r_serve.add_argument("--propagation",
                         choices=["push", "invalidate", "none"], default="none")
    r_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve one /metrics endpoint covering every "
                         "device (0 for ephemeral)")
    r_serve.add_argument("--grace", type=float, default=2.0,
                         help="drain grace period on shutdown (s)")
    r_serve.add_argument("--store-dir", default=None,
                         help="root for per-device durable stores "
                         "(<dir>/dev<id>; docs/STORE.md)")
    r_serve.add_argument("--fsync", choices=["always", "interval", "never"],
                         default="interval",
                         help="WAL durability policy (default: interval)")
    r_serve.add_argument("--recovery-delta", type=float,
                         default=float("inf"),
                         help="freshness bound used by recovery "
                         "(default: infinity — restore only)")
    r_serve.add_argument("--cluster", action="store_true",
                         help="attach a SWIM agent to every device: gossip "
                         "membership, failure detection, automatic failover")
    r_serve.add_argument("--probe-period", type=float, default=0.2,
                         help="SWIM probe period (s)")
    r_serve.add_argument("--suspect-timeout", type=float, default=0.6,
                         help="suspicion age before a member is declared "
                         "dead (s)")
    r_serve.set_defaults(func=cmd_ring_serve_set)

    r_soak = ring_sub.add_parser(
        "soak", help="multi-server TCP soak, checker-verified")
    r_soak.add_argument("--servers", type=int, default=3)
    r_soak.add_argument("--replicas", type=int, default=2)
    r_soak.add_argument("--clients", type=int, default=2)
    r_soak.add_argument("--part-power", type=int, default=6)
    r_soak.add_argument("--delta", type=float, default=0.4)
    r_soak.add_argument("--rounds", type=int, default=30,
                        help="operations per client")
    r_soak.add_argument("--duration", type=float, default=None,
                        help="run the main workload for this many seconds "
                        "instead of a fixed --rounds count")
    r_soak.add_argument("--think", type=float, default=0.002,
                        help="mean per-op client think time (s); paces the "
                        "soak — an unpaced duration-bounded soak runs at "
                        "hundreds of ops/s and genuinely probes the "
                        "seriality frontier (see docs/LOAD.md)")
    r_soak.add_argument("--write-fraction", type=float, default=0.3)
    r_soak.add_argument("--skew", type=float, default=0.05,
                        help="client clock skew magnitude (s)")
    r_soak.add_argument("--server-skew", type=float, default=0.02,
                        help="server clock skew magnitude (s)")
    r_soak.add_argument("--quorum", type=int, default=None,
                        help="write quorum W (default: all N replicas)")
    r_soak.add_argument("--read-policy", choices=["primary", "spread"],
                        default="primary")
    r_soak.add_argument("--criterion", choices=["tsc", "tcc"], default="tsc",
                        help="which timed criterion the trace must satisfy")
    r_soak.add_argument("--grow", action="store_true",
                        help="add a server mid-run and let the cluster join "
                        "it (donor handoff, promotion, epoch cutover), all "
                        "inside the checked trace (implies --cluster)")
    r_soak.add_argument("--pipeline-depth", type=int, default=8,
                        help="per-device request pipelining depth")
    r_soak.add_argument("--seed", type=int, default=7)
    r_soak.add_argument("--metrics", action="store_true",
                        help="instrument the soak (live on-time ratio, "
                        "visibility-lag histogram) and report agreement "
                        "with the offline checker")
    r_soak.add_argument("--metrics-port", type=int, default=None,
                        help="serve /metrics live during the soak "
                        "(implies --metrics)")
    r_soak.add_argument("--metrics-snapshot", default=None, metavar="FILE",
                        help="save the final registry snapshot as JSON "
                        "(implies --metrics; inspect via repro obs dump)")
    r_soak.add_argument("--store-dir", default=None,
                        help="give every server a durable store under "
                        "<dir>/dev<id>, the --grow joiner's included")
    r_soak.add_argument("--fsync", choices=["always", "interval", "never"],
                        default="interval",
                        help="WAL durability policy (default: interval)")
    r_soak.add_argument("--cluster", action="store_true",
                        help="run SWIM agents on every server (gossip "
                        "membership + failure detection)")
    r_soak.add_argument("--kill-primary", action="store_true",
                        help="crash a primary mid-run and require automatic "
                        "failover inside the checked trace (implies "
                        "--cluster)")
    r_soak.add_argument("--probe-period", type=float, default=0.1,
                        help="SWIM probe period (s)")
    r_soak.add_argument("--suspect-timeout", type=float, default=0.3,
                        help="suspicion age before a member is declared "
                        "dead (s)")
    r_soak.set_defaults(func=cmd_ring_soak)
