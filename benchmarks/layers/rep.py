"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition with a JSON job on the
command line and reads one JSON result from the last line of stdout.
A repetition builds the real TCP stack in-process (servers and client
sites on one event loop, loopback sockets), runs the warm-up steps
untimed, measures, and then — outside the timed window — judges what it
saw.  Four kinds of job share this path:

``rep``      the untraced measurement every end-to-end number comes from;
``traced``   the same with :mod:`spans` wrappers installed;
``harness``  the same driver and recorder against a stub site, which
             prices the benchmark's own loop so it can be subtracted;
``verify``   a short run whose whole merged trace goes through
             ``check_tsc`` and, with a store, the durability gate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from workloads import BY_NAME, KEYS, Step, Workload, site_steps

from repro.checkers import check_tsc
from repro.net.client import NetCacheClient
from repro.net.ring_router import RingRouter
from repro.net.server import NetObjectServer
from repro.obs.instruments import OnTimeRatio
from repro.obs.metrics import Registry
from repro.ring import RingBuilder
from repro.sim.trace import TraceRecorder
from repro.store import DurableStore

_perf = time.perf_counter
INITIAL_VALUE = 0
#: The measured window runs in segments this long, a calibration reading
#: before and after each.
SEGMENT_SECONDS = 0.5
CALIBRATION_ROUNDS = 20000
#: What :class:`Speed`'s processor kernel reads on this box in its fast
#: state.  Timings are reported in seconds of a machine on which it reads
#: exactly this.
CALIBRATION_REFERENCE_S = 0.070
#: The same for the disk: fsyncs per reading, and what one takes on this
#: box on a good minute.
FSYNC_PROBES = 15
FSYNC_REFERENCE_S = 0.000190


class SiteLog:
    """What one site's driver loop saw."""

    def __init__(self) -> None:
        self.read_lat: List[float] = []
        self.write_lat: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.steps_done = 0
        self.exhausted = False
        self.written: set = set()
        #: key -> (alpha, value) of the newest acknowledged write.
        self.acked: Dict[str, Tuple[float, Any]] = {}

    def start_measuring(self) -> None:
        """Forget the warm-up's timings; keep what it wrote (a measured
        read may return it) and what it failed (a failure is a failure)."""
        self.read_lat.clear()
        self.write_lat.clear()
        self.attempted = self.failed
        self.steps_done = 0
        self.exhausted = False


class StubSite:
    """A site with the stack taken away: records like a client, sends
    nothing.  Driving it prices the generator, the driver loop and the
    recorder — the benchmark's own share of every bill."""

    def __init__(self, site_id: int, recorder: TraceRecorder) -> None:
        self.site_id = site_id
        self.recorder = recorder

    async def read(self, obj: str) -> Any:
        now = _perf()
        self.recorder.record_read(
            self.site_id, obj, INITIAL_VALUE, now, start=now, end=now
        )
        return INITIAL_VALUE

    async def write(self, obj: str, value: Any) -> float:
        now = _perf()
        self.recorder.record_write(
            self.site_id, obj, value, now, start=now, end=now
        )
        return now

    async def close(self) -> None:
        pass


class Stack:
    """The servers and sites of one repetition."""

    def __init__(self) -> None:
        self.servers: List[NetObjectServer] = []
        self.sites: List[Tuple[int, Any]] = []
        self.clients: List[NetCacheClient] = []  # every device connection
        self.router: Optional[RingRouter] = None
        self.store: Optional[DurableStore] = None
        self.recorder = TraceRecorder(initial_value=INITIAL_VALUE)

    @property
    def epsilon(self) -> float:
        if self.router is not None:
            return self.router.epsilon_bound
        return max(client.epsilon_bound for client in self.clients)

    async def close(self) -> None:
        for _, site in self.sites:
            await site.close()
        for server in self.servers:
            await server.close()
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)


async def build_stack(spec: Workload, store_root: str) -> Stack:
    """Library defaults throughout: ``propagation="none"`` servers, pull
    clients with ``pipeline_depth=8, batch=0``, no registry, no faults."""
    stack = Stack()
    if spec.store:
        # Under the checkout, never /tmp: on a tmpfs an fsync is free.
        stack.store = DurableStore(store_root, fsync="always")
    for _ in range(spec.servers):
        server = NetObjectServer(propagation="none", store=stack.store)
        await server.start()
        stack.servers.append(server)
    if spec.ring:
        builder = RingBuilder(part_power=6, replicas=2)
        for dev_id in range(spec.servers):
            builder.add_device(dev_id)
        ring, _ = builder.rebalance()
        endpoints = {
            dev_id: (server.host, server.port)
            for dev_id, server in enumerate(stack.servers)
        }
        # One router only: the merged trace of several routers is known to
        # fail SC (ROADMAP item 2); that is a limit, not a speed number.
        router = RingRouter(
            1, ring, endpoints, delta=spec.delta, recorder=stack.recorder
        )
        await router.connect()
        router.start_anti_entropy()
        stack.router = router
        stack.sites.append((1, router))
        stack.clients.extend(router.clients.values())
    else:
        server = stack.servers[0]
        for site_id in range(1, spec.sites + 1):
            client = NetCacheClient(
                site_id, server.host, server.port,
                delta=spec.delta, recorder=stack.recorder,
            )
            await client.connect()
            stack.sites.append((site_id, client))
            stack.clients.append(client)
    return stack


async def drive(
    site: Any, site_id: int, steps: Iterator[Step], log: SiteLog,
    deadline: float, numbers: "itertools.count[int]",
) -> None:
    """The closed loop of one site, one step outstanding at a time, until
    ``deadline`` passes or the site's traffic runs out."""

    async def do_write(key: str) -> None:
        value = f"s{site_id}.{next(numbers)}"
        log.written.add(value)
        log.attempted += 1
        started = _perf()
        try:
            alpha = await site.write(key, value)
        except asyncio.CancelledError:
            raise
        except Exception:  # raised, refused or timed out: a failed op
            log.failed += 1
            return
        log.write_lat.append(_perf() - started)
        newest = log.acked.get(key)
        if newest is None or alpha > newest[0]:
            log.acked[key] = (alpha, value)

    async def do_read(key: str) -> None:
        log.attempted += 1
        started = _perf()
        try:
            await site.read(key)
        except asyncio.CancelledError:
            raise
        except Exception:
            log.failed += 1
            return
        log.read_lat.append(_perf() - started)

    for write_keys, read_key in steps:
        if len(write_keys) == 1:
            await do_write(write_keys[0])
        elif write_keys:
            await asyncio.gather(*(do_write(key) for key in write_keys))
        if read_key is not None:
            await do_read(read_key)
        log.steps_done += 1
        if _perf() >= deadline:
            return
    log.exhausted = True


class Speed:
    """How slow the machine is right now, against fixed references.

    This box flips between speed states about 28 % apart every one to six
    seconds (a spin loop's one-second medians read 12.5 or 16 ms) and at
    times sits in a slower one for minutes; its disk drifts as much
    (two-second fsync medians between 190 and 380 us).  Repeating inside a
    15 s run averages none of that out.  So the measured window runs in
    half-second segments with a reading before and after each, and a
    segment's CPU time is divided by the processor's slowdown around it,
    its blocked time — with a store — by the disk's.

    The processor kernel is stdlib code shaped like the stack's hot path,
    JSON round trips and dict stores; the disk kernel is a WAL-record-sized
    append and fsync.  Neither touches ``repro``, so no change to the
    program can move them."""

    def __init__(self, probe_path: Optional[str]) -> None:
        """``probe_path`` names a scratch file on the store's filesystem;
        ``None`` (no store) leaves the disk unread and its slowdown 1."""
        self._probe = open(probe_path, "ab") if probe_path is not None else None
        self.cpu_s, self.fsync_s = self._read()

    def _read(self) -> Tuple[float, float]:
        started = _perf()
        table: Dict[str, Any] = {}
        for i in range(CALIBRATION_ROUNDS):
            key = KEYS[i & 1023]
            table[key] = json.loads(json.dumps(
                {"kind": "validate", "obj": key, "alpha": i * 0.5, "req": i}
            ))
        cpu_s = _perf() - started
        if self._probe is None:
            return cpu_s, FSYNC_REFERENCE_S
        took = []
        for _ in range(FSYNC_PROBES):
            self._probe.write(b"x" * 82)  # one WAL record's worth
            self._probe.flush()
            started = _perf()
            os.fsync(self._probe.fileno())
            took.append(_perf() - started)
        return cpu_s, sorted(took)[len(took) // 2]

    def slowdowns_since_last(self) -> Tuple[float, float]:
        """(processor, disk) slowdown over the stretch since the previous
        reading: the mean of that reading and a new one, over the reference."""
        cpu_s, fsync_s = self._read()
        slow = ((self.cpu_s + cpu_s) / 2.0 / CALIBRATION_REFERENCE_S,
                (self.fsync_s + fsync_s) / 2.0 / FSYNC_REFERENCE_S)
        self.cpu_s, self.fsync_s = cpu_s, fsync_s
        return slow

    def close(self) -> None:
        if self._probe is not None:
            self._probe.close()
            os.remove(self._probe.name)


def counters(stack: Stack) -> Dict[str, float]:
    """Every count read at a layer boundary, as one flat dict; a window's
    counts are the difference of two calls."""
    out: Dict[str, float] = {
        "server.requests": 0, "server.dedup_replays": 0,
        "server.writes_discarded": 0, "server.busy_sent": 0,
        "wire.frames": 0, "wire.bytes": 0,
    }
    for server in stack.servers:
        out["server.requests"] += server.engine.requests
        out["server.dedup_replays"] += server.engine.dedup_replays
        out["server.writes_discarded"] += server.engine.writes_discarded
        out["server.busy_sent"] += server.busy_sent
        totals = server.transport_totals()
        out["wire.frames"] += sum(totals["frames"].values())
        out["wire.bytes"] += sum(totals["bytes"].values())
    for field in ("reads", "writes", "fresh_hits", "validations",
                  "revalidated", "fetches", "retries"):
        out[f"client.{field}"] = sum(
            getattr(client.stats, field) for client in stack.clients
        )
    if stack.store is not None:
        wal = stack.store.wal
        out["store.fsyncs"] = wal.fsyncs
        out["store.wal_bytes"] = wal.bytes_appended
        out["store.wal_records"] = wal.records_appended
    if stack.router is not None:
        for field, value in stack.router.placement.stats.as_dict().items():
            out[f"ring.{field}"] = value
    return out


def issued(op: Any) -> float:
    """When a recorded operation began (its effective time if unknown)."""
    return op.start if op.start is not None else op.time


def judge_on_time(
    operations: List[Any], delta: float, epsilon: float
) -> Dict[str, float]:
    """Definition 2 over the whole recorded trace, by ``OnTimeRatio``.

    A read is judged at the *start* of its interval.  The paper lets an
    operation's effective time lie anywhere between its start and its
    end; the client records the end, so a reply that sat 2 ms in the
    loop's queue behind another site's write to the same key reads as
    late at delta = 2 ms although the value was current when it was
    validated (seen once in some 250 000 reads of ``read_validate``).
    Judged at its start, a read of a correct protocol can never be late —
    a hit has start = end and a lifetime reaching past start - delta, a
    validation is served after start — while a cache that serves past
    delta still is.

    Writes are fed in time order up to the *end* of the read being
    judged, plus ``epsilon``: a read may return a write installed while it
    was in flight, two clocks may disagree by epsilon about which came
    first, and a read fed before its own writer comes back *unjudged*.
    A write fed early is younger than any cutoff and changes no verdict."""
    judge = OnTimeRatio(Registry(), delta, epsilon, initial_value=INITIAL_VALUE)
    writes = sorted((op for op in operations if op.is_write), key=lambda op: op.time)
    reads = sorted((op for op in operations if op.is_read), key=issued)
    started = _perf()
    fed = 0
    for op in reads:
        while fed < len(writes) and writes[fed].time <= op.time + epsilon:
            w = writes[fed]
            judge.observe_write(w.obj, w.value, w.time)
            fed += 1
        judge.observe_read(op.obj, op.value, issued(op))
    counts = judge.counts
    return {
        "reads": len(reads),
        "late": counts["late"],
        "unjudged": counts["unjudged"],
        "seconds": _perf() - started,
    }


class DurableMark:
    """How many bytes of ``wal.log`` are known to be on the disk: the log's
    length at the last fsync, and nothing once a snapshot has replaced it."""

    def __init__(self, store: DurableStore) -> None:
        self.store = store
        self.length = store.wal.size  # open() synced whatever it appended
        store.wal.on_fsync = self._synced
        take_snapshot = store.snapshot

        def snapshot(*args: Any, **kwargs: Any) -> None:
            take_snapshot(*args, **kwargs)
            self.length = 0

        store.snapshot = snapshot  # this instance only; the class is untouched

    def _synced(self, elapsed: float) -> None:
        self.length = self.store.wal.size


def durability_gate(
    mark: DurableMark, acked: Dict[str, Tuple[float, Any]], scratch: str
) -> Dict[str, float]:
    """Crash the disk, not the process: keep only the bytes that were
    fsynced, recover from them, and require every acknowledged write."""
    shutil.copytree(mark.store.root, scratch)
    try:
        with open(os.path.join(scratch, "wal.log"), "r+b") as fh:
            fh.truncate(mark.length)
        survivor = DurableStore(scratch)
        started = _perf()
        recovered = survivor.open()
        recover_ms = (_perf() - started) * 1e3
        survivor.close()
        kept = sum(
            1 for key, (_, value) in acked.items()
            if key in recovered.objects and recovered.objects[key].value == value
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "recover_ms": recover_ms,
        "recovered_write_share": kept / len(acked),
        "objects": len(acked),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    ``VmHWM``, not ``ru_maxrss``: the latter survives ``exec``, so a child
    starts at whatever its forking parent weighed — and ``run.py`` grows
    with every result it collects (its fifth round of children all read
    59 MB where the first four read 50)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def measured_window(
    stack: Stack, logs: Dict[int, SiteLog], run_until: Any,
    traffic: Dict[int, Iterator[Step]], speed: Speed, job: Dict[str, Any],
    tracer: Any,
) -> List[Dict[str, float]]:
    """Run the sites through ``traffic`` in half-second segments until the
    time limit has passed (and the floor of steps is done) or the traffic
    runs out; returns one record per segment.  Latency samples are
    rescaled in place to reference-machine seconds."""
    segments: List[Dict[str, float]] = []
    window_end = _perf() + job["time_limit"]
    while not all(log.exhausted for log in logs.values()):
        steps_done = min(log.steps_done for log in logs.values())
        if _perf() >= window_end and steps_done >= job["min_steps"]:
            break
        marks = [(len(log.read_lat), len(log.write_lat)) for log in logs.values()]
        first_span = len(tracer.spans) if tracer is not None else 0
        cpu0, wall0 = time.process_time(), _perf()
        await run_until(traffic, wall0 + SEGMENT_SECONDS)
        wall, cpu = _perf() - wall0, time.process_time() - cpu0
        slowdown, disk_slowdown = speed.slowdowns_since_last()
        # CPU time stretches with a slow processor; blocked time (fsync,
        # else a moment idle in the selector) with a slow disk.
        fair_cpu = cpu / slowdown
        fair_wall = fair_cpu + max(0.0, wall - cpu) / disk_slowdown
        ops = 0
        for log, (reads, writes) in zip(logs.values(), marks):
            for samples, first in ((log.read_lat, reads), (log.write_lat, writes)):
                ops += len(samples) - first
                for i in range(first, len(samples)):
                    samples[i] *= fair_wall / wall
        segments.append({
            "ops": ops, "wall_s": wall, "cpu_s": cpu,
            "slowdown": slowdown, "disk_slowdown": disk_slowdown,
            "fair_wall_s": fair_wall, "fair_cpu_s": fair_cpu,
            "first_span": first_span,
        })
    return segments


def judged(stack: Stack, spec: Workload, logs: Dict[int, SiteLog]) -> Dict[str, Any]:
    """The gates every repetition passes its whole recorded trace through."""
    operations = stack.recorder.operations
    epsilon = stack.epsilon
    written = set().union(*(log.written for log in logs.values()))
    return {
        "epsilon": epsilon,
        "trace_ops": len(operations),
        "bad_values": sum(
            1 for op in operations
            if op.is_read and op.value != INITIAL_VALUE and op.value not in written
        ),
        "on_time": judge_on_time(operations, spec.delta, epsilon),
    }


def verified(
    stack: Stack, spec: Workload, logs: Dict[int, SiteLog], epsilon: float,
    mark: Optional[DurableMark], scratch: str,
) -> Dict[str, Any]:
    """The verification pass's own gates: ``check_tsc`` on the merged
    trace and, with a store, the durability gate."""
    # Reads at the start of their interval, as judge_on_time takes them.
    trace = TraceRecorder(initial_value=INITIAL_VALUE)
    trace.operations = [
        dataclasses.replace(op, time=issued(op)) if op.is_read else op
        for op in stack.recorder.operations
    ]
    history = trace.history()
    started = _perf()
    verdict = check_tsc(history, spec.delta, epsilon)
    out: Dict[str, Any] = {"tsc": {
        "satisfied": bool(verdict.satisfied), "unknown": bool(verdict.unknown),
        "violation": verdict.violation, "seconds": _perf() - started,
    }}
    if mark is not None:
        acked: Dict[str, Tuple[float, Any]] = {}
        for log in logs.values():
            for key, entry in log.acked.items():
                if key not in acked or entry[0] > acked[key][0]:
                    acked[key] = entry
        out["durability"] = durability_gate(mark, acked, scratch)
    return out


async def repetition(job: Dict[str, Any]) -> Dict[str, Any]:
    spec = BY_NAME[job["workload"]]
    mode = job["mode"]
    scratch = os.path.join(job["out_dir"], "{}_" + job["scratch"])
    speed = Speed(scratch.format("probe") if spec.store else None)
    started_cpu_s = speed.cpu_s
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    stack = Stack()
    if mode == "harness":
        stack.sites = [
            (site_id, StubSite(site_id, stack.recorder))
            for site_id in range(1, spec.sites + 1)
        ]
    else:
        stack = await build_stack(spec, scratch.format("store"))
    mark = None
    if stack.store is not None:
        if tracer is not None:
            stack.store.wal.on_fsync = tracer.on_fsync
        elif mode == "verify":
            mark = DurableMark(stack.store)

    warmup, measured = job["warmup_steps"], job["measured_steps"]
    logs = {site_id: SiteLog() for site_id, _ in stack.sites}
    numbers = {site_id: itertools.count(1) for site_id, _ in stack.sites}
    programs = {
        site_id: site_steps(spec, job["seed"], site_id, warmup + measured)
        for site_id, _ in stack.sites
    }

    async def run_until(traffic: Dict[int, Iterator[Step]], deadline: float) -> None:
        await asyncio.gather(*(
            drive(site, site_id, traffic[site_id], logs[site_id], deadline,
                  numbers[site_id])
            for site_id, site in stack.sites if not logs[site_id].exhausted
        ))

    # Warm-up, untimed.  First every cache takes every key: the context
    # sweep costs O(cached entries), so a cache still filling makes each
    # operation dearer than the one before and a window's throughput a
    # function of how far it got.  Then the head of the site's own traffic.
    # The verification pass stays cold: it is about order, not speed, and
    # the checker could not afford 2 000 more reads in its trace.
    if mode != "verify":
        for client in stack.clients:
            await client.validate_many(KEYS)
    await run_until(
        {site_id: iter(program[:warmup]) for site_id, program in programs.items()},
        math.inf,
    )
    for log in logs.values():
        log.start_measuring()

    before = counters(stack)
    misses_before = [len(client.stats.read_latencies) for client in stack.clients]
    speed.slowdowns_since_last()  # a fresh reading to open the first segment with
    setup_s = (time.time() - job["spawned_at"]) * CALIBRATION_REFERENCE_S / (
        (started_cpu_s + speed.cpu_s) / 2.0)
    segments = await measured_window(
        stack, logs, run_until,
        {site_id: iter(program[warmup:]) for site_id, program in programs.items()},
        speed, job, tracer,
    )
    peak_mb = peak_rss_mb()
    after = counters(stack)
    speed.close()

    attempted = sum(log.attempted for log in logs.values())
    failed = sum(log.failed for log in logs.values())
    if not job["time_bound"]:
        # Op-count-bound: steps a site never reached before the abort
        # deadline are operations the stack failed to serve.
        for log in logs.values():
            missing = (measured - log.steps_done) * spec.ops_per_step
            attempted += missing
            failed += missing
    result: Dict[str, Any] = {
        "mode": mode, "workload": spec.name,
        "ops": sum(segment["ops"] for segment in segments),
        "attempted": attempted, "failed": failed,
        "segments": segments, "setup_s": setup_s, "peak_rss_mb": peak_mb,
        "read_lat_us": [round(s * 1e6, 4) for log in logs.values() for s in log.read_lat],
        "write_lat_us": [round(s * 1e6, 4) for log in logs.values() for s in log.write_lat],
        "counts": {key: after[key] - before[key] for key in after},
    }
    if mode != "harness":
        result.update(judged(stack, spec, logs))
        result["miss_rtt_us"] = sorted(
            round(s * 1e6, 2)
            for client, first in zip(stack.clients, misses_before)
            for s in client.stats.read_latencies[first:] if s > 0.0
        )
    if mode == "verify":
        result.update(verified(
            stack, spec, logs, result["epsilon"], mark, scratch.format("recover")))
    if tracer is not None:
        from spans import layer_totals

        tracer.write_jsonl(
            os.path.join(job["out_dir"], f"trace_{spec.name}.jsonl"),
            segments[0]["first_span"])
        result["spans"] = {
            name: {
                "calls": entry["calls"],
                "self_us": entry["self"] * 1e6,
                "cpu_us": entry["cpu"] * 1e6,
                "busy_us": sorted(round(b * 1e6, 2) for b in entry["busy"]),
            }
            for name, entry in layer_totals(tracer.spans, segments).items()
        }
    await stack.close()
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    result = asyncio.run(repetition(job))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
