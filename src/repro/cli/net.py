"""Live TCP stack commands: ``serve``, ``client``, ``merge``, ``net-demo``."""

from __future__ import annotations

import argparse
import math

from repro.analysis import print_table

def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.core.io import dump_history
    from repro.net.server import NetObjectServer
    from repro.sim.trace import TraceRecorder

    recorder = TraceRecorder() if args.trace else None

    async def _serve() -> None:
        registry = None
        if args.metrics_port is not None:
            from repro.obs.metrics import Registry

            registry = Registry()
        store = None
        if args.store_dir:
            import os

            from repro.store import DurableStore

            # REPRO_STORE_CRASH_AFTER is the crash-test fault injection:
            # SIGKILL ourselves after N WAL appends, i.e. between a
            # write's append and its acknowledgement.
            crash_after = os.environ.get("REPRO_STORE_CRASH_AFTER")
            store = DurableStore(
                args.store_dir,
                fsync=args.fsync,
                recovery_delta=args.recovery_delta,
                registry=registry,
                crash_after_appends=(
                    int(crash_after) if crash_after else None
                ),
            )
        server = NetObjectServer(
            args.host, args.port,
            propagation=args.propagation,
            recorder=recorder,
            registry=registry,
            metric_labels={"role": "server"} if registry is not None else None,
            store=store,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
        await server.start()
        if server.recovered is not None and not server.recovered.empty:
            r = server.recovered
            print(f"recovered {len(r.objects)} objects from {args.store_dir} "
                  f"({r.replayed_records} log records"
                  f"{', snapshot' if r.snapshot_loaded else ''}"
                  f"{', clean' if r.clean_start else ''}), "
                  f"context={r.context:.3f}, resume t={r.resume_time:.3f}, "
                  f"{len(r.old_objects)} versions marked old")
        agent = None
        if args.cluster:
            from repro.cluster import ClusterConfig, ClusterView, SwimAgent

            members = {}
            for part in args.cluster.split(","):
                member_id, _, address = part.strip().partition("=")
                members[int(member_id)] = address
            members[args.member_id] = server.address
            instruments = None
            if registry is not None:
                from repro.obs.instruments import ClusterInstruments

                instruments = ClusterInstruments(
                    registry, member=args.member_id
                )
            agent = SwimAgent(
                args.member_id, server,
                ClusterView.seed(members),
                ClusterConfig(
                    probe_period=args.probe_period,
                    suspect_timeout=args.suspect_timeout,
                ),
                instruments=instruments,
            )
            await agent.start()
            print(f"cluster member {args.member_id} of "
                  f"{sorted(members)} (probe {args.probe_period:g}s, "
                  f"suspect timeout {args.suspect_timeout:g}s)")
        metrics = None
        if registry is not None:
            from repro.obs.expo import MetricsServer

            metrics = await MetricsServer(
                registry, args.host, args.metrics_port,
                health=lambda: server.healthy,
            ).start()
            print(f"metrics on http://{metrics.address}/metrics")
        print(f"serving on {server.address} "
              f"(propagation={args.propagation}); SIGINT/SIGTERM to stop")
        try:
            await stop.wait()
        finally:
            # Graceful drain: hand queued pushes over, say bye, close;
            # /healthz flips to 503 the moment the drain starts.
            if agent is not None:
                await agent.stop()
            await server.shutdown(grace=args.grace)
            if metrics is not None:
                await metrics.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    if recorder is not None and args.trace:
        dump_history(recorder.history(validate=False), args.trace)
        print(f"wrote {len(recorder)} recorded writes to {args.trace}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Merge per-process traces (server + clients) into one checkable file.

    A write appears both in the server's trace and in its writer's trace
    (same site, object, value and effective time), so exact duplicates
    are collapsed; everything else is concatenated and re-sorted.
    """
    from repro.core.io import dump_history, load_history
    from repro.core.history import History

    seen = set()
    operations = []
    initial_value = None
    for path in args.traces:
        history = load_history(path, validate=False)
        if initial_value is None:
            initial_value = history.initial_value
        for op in history.operations:
            key = (op.kind, op.site, op.obj, op.value, op.time)
            if op.is_write and key in seen:
                continue
            seen.add(key)
            operations.append(op)
    merged = History(operations, initial_value=initial_value or 0,
                     validate=not args.no_validate)
    dump_history(merged, args.out)
    print(f"merged {len(args.traces)} traces "
          f"({len(operations)} operations) into {args.out}")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    import asyncio
    import random

    from repro.core.io import dump_history
    from repro.net.client import NetCacheClient
    from repro.sim.trace import TraceRecorder, UniqueValueFactory

    recorder = TraceRecorder()
    values = UniqueValueFactory()
    delta = math.inf if args.delta is None else args.delta

    async def _run() -> NetCacheClient:
        client = NetCacheClient(
            args.client_id, args.host, args.port,
            delta=delta, mode=args.mode, recorder=recorder, skew=args.skew,
            pipeline_depth=args.pipeline_depth,
        )
        await client.connect()
        rng = random.Random(args.seed + args.client_id)
        objects = args.objects.split(",")
        try:
            for _ in range(args.ops):
                await asyncio.sleep(rng.uniform(0.0, 2 * args.think))
                obj = rng.choice(objects)
                if rng.random() < args.write_fraction:
                    await client.write(obj, values.next_value(args.client_id))
                else:
                    await client.read(obj)
        finally:
            await client.close()
        return client

    client = asyncio.run(_run())
    stats = client.stats
    print_table(
        [{
            "client": args.client_id, "reads": stats.reads,
            "writes": stats.writes, "hit_ratio": round(stats.hit_ratio, 3),
            "retries": stats.retries,
            "clock_offset": round(client.clock.estimator.offset, 6),
            "epsilon_bound": round(client.epsilon_bound, 6),
        }],
        title=f"client {args.client_id} against {args.host}:{args.port} "
        f"({args.mode}, delta={delta:g})",
    )
    if args.trace:
        # A single client's trace is partial (it reads values written by
        # other clients), so skip reads-from validation here; `repro
        # merge` rebuilds the full history from every process's trace.
        dump_history(recorder.history(validate=False), args.trace)
        print(f"wrote the recorded trace to {args.trace} "
              "(combine with the other traces via: repro merge)")
    return 0


def cmd_net_demo(args: argparse.Namespace) -> int:
    from repro.net.workloads import run_push_staleness_demo

    report = run_push_staleness_demo(
        n_clients=args.clients, delta=args.delta,
        push_delay=args.push_delay, skew=args.skew,
    )
    rows = []
    for client_id, stats in sorted(report.client_stats.items()):
        rows.append({
            "client": client_id, "reads": stats.reads, "writes": stats.writes,
            "fresh_hits": stats.fresh_hits, "pushes": stats.pushes,
            "clock_offset": round(report.client_offsets[client_id], 4),
        })
    print_table(rows, title=f"net-demo: {args.clients} clients over TCP, "
                f"delta={args.delta:g}, push delay={args.push_delay:g}, "
                f"skew ±{args.skew:g}")
    late = len(report.late_reads)
    total = len(report.verdicts)
    print(f"\nclock-sync epsilon: {report.epsilon:.6f}s "
          f"(clients synchronized to the server's clock)")
    print(f"recorded trace: SC {'holds' if report.sc.satisfied else 'VIOLATED'}; "
          f"TSC(delta={args.delta:g}) "
          f"{'SATISFIED' if report.tsc.satisfied else 'VIOLATED'}; "
          f"{late}/{total} reads late")
    if report.tsc.violation:
        print(f"  {report.tsc.violation}")
    if args.expect_late:
        ok = not report.tsc.satisfied and late > 0
        print("\nexpected late reads:", "observed" if ok else "NOT OBSERVED")
    else:
        ok = report.tsc.satisfied
    return 0 if ok else 1


def register(sub: "argparse._SubParsersAction") -> None:
    """Attach this module's subcommands to the ``repro`` parser."""
    p_serve = sub.add_parser(
        "serve", help="run a TCP object server",
        description="Serve the lifetime protocol over TCP: every request "
        "is answered in place, in arrival order (docs/NET_PROTOCOL.md).",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7459)
    p_serve.add_argument("--propagation", choices=["push", "invalidate", "none"],
                         default="push")
    p_serve.add_argument("--trace", default=None,
                         help="dump installed writes as a JSON trace on exit")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="also serve /metrics and /healthz on this port "
                         "(0 for ephemeral)")
    p_serve.add_argument("--grace", type=float, default=2.0,
                         help="drain grace period on shutdown (s)")
    p_serve.add_argument("--store-dir", default=None,
                         help="durable store directory: WAL + snapshots, "
                         "recovered on start (docs/STORE.md)")
    p_serve.add_argument("--fsync", choices=["always", "interval", "never"],
                         default="interval",
                         help="WAL durability policy (default: interval)")
    p_serve.add_argument("--recovery-delta", type=float,
                         default=float("inf"),
                         help="freshness bound used by recovery: versions "
                         "unvalidated for longer are marked old "
                         "(default: infinity — restore only)")
    p_serve.add_argument("--cluster", default=None, metavar="MEMBERS",
                         help="join a cluster: comma-separated id=host:port "
                         "peers (this member's own entry may be omitted; "
                         "see docs/CLUSTER.md)")
    p_serve.add_argument("--member-id", type=int, default=0,
                         help="this server's member/device id in the cluster")
    p_serve.add_argument("--probe-period", type=float, default=0.2,
                         help="SWIM probe period (s)")
    p_serve.add_argument("--suspect-timeout", type=float, default=0.6,
                         help="suspicion age before a member is declared "
                         "dead (s)")
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser("client", help="run a workload against a server")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7459)
    p_client.add_argument("--client-id", type=int, default=0)
    p_client.add_argument("--delta", type=float, default=None,
                          help="freshness bound (seconds); default: infinity (SC)")
    p_client.add_argument("--mode", choices=["pull", "push"], default="pull")
    p_client.add_argument("--ops", type=int, default=50)
    p_client.add_argument("--objects", default="x,y,z",
                          help="comma-separated object names")
    p_client.add_argument("--write-fraction", type=float, default=0.2)
    p_client.add_argument("--think", type=float, default=0.01,
                          help="mean think time between operations (s)")
    p_client.add_argument("--skew", type=float, default=0.0,
                          help="injected local clock skew (s), corrected by sync")
    p_client.add_argument("--pipeline-depth", type=int, default=8,
                          help="max requests in flight on the connection "
                          "(default: 8)")
    p_client.add_argument("--seed", type=int, default=7)
    p_client.add_argument("--trace", default=None,
                          help="dump this client's recorded trace to a file")
    p_client.set_defaults(func=cmd_client)

    p_merge = sub.add_parser(
        "merge", help="merge per-process traces into one checkable file")
    p_merge.add_argument("out", help="output trace path")
    p_merge.add_argument("traces", nargs="+", help="input trace files")
    p_merge.add_argument("--no-validate", action="store_true")
    p_merge.set_defaults(func=cmd_merge)

    p_demo = sub.add_parser(
        "net-demo",
        help="in-process TCP cluster, checker-verified (docs/NET_PROTOCOL.md)")
    p_demo.add_argument("--clients", type=int, default=3)
    p_demo.add_argument("--delta", type=float, default=0.3)
    p_demo.add_argument("--push-delay", type=float, default=0.0,
                        help="fault injection: delay applied to push frames (s)")
    p_demo.add_argument("--skew", type=float, default=0.1,
                        help="injected clock skew magnitude per client (s)")
    p_demo.add_argument("--expect-late", action="store_true",
                        help="exit 0 iff the checkers DID flag late reads")
    p_demo.set_defaults(func=cmd_net_demo)
