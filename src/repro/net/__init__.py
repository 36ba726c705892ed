"""A real TCP replica cluster running the lifetime protocol.

Everything else in this repository runs on the deterministic simulator
(:mod:`repro.sim`).  This package is the *distributed* counterpart —
asyncio over real sockets, every timer and stamp on the event loop's
clock (:mod:`repro.clocks.rebase`), so :mod:`repro.sim.vtime` can run it
unmodified in virtual time:

* :mod:`repro.net.framing` — length-prefixed frames over TCP (JSON, or
  ``struct``-packed for the four hot kinds; one codec, both forms decode
  to the same dict) and the one ``asyncio.Protocol`` that carries them;
  ``python -m repro.net < captured`` prints a captured stream, one JSON
  line per frame;
* :mod:`repro.net.server` — the authoritative object server, speaking
  the protocol kinds of
  :mod:`repro.engine.messages` plus the clock-sync handshake;
* :mod:`repro.net.channel` — the asking end of one connection: dial,
  ``hello``, request ids, reply matching and the per-attempt timeout,
  once, for the cache client, the cluster agents and the CLI;
* :mod:`repro.net.client` — the Sections 5.1-5.2 cache site (one
  engine, recorder and clock) and its device links (a channel, the
  clock-sync handshake, the server's epoch);
* :mod:`repro.net.clocksync` — NTP-style offset/epsilon estimation so
  every client runs an approximately synchronized clock (Definition 2);
* :mod:`repro.net.faults` — frame-level delay/drop/duplicate/partition
  injection;
* :mod:`repro.net.ring_router` — the multi-server site: one link
  per ring device, W-of-N replicated writes, primary-first
  reads, per-server clock sync composed onto one reference timescale;
* :mod:`repro.net.local` — the one localhost fixture: ``LocalStack``
  stands the stack up (servers, ring, stores, SWIM agents, connected
  sites), kills a primary and tears everything down (the verdict over a
  recorded trace is :func:`repro.checkers.judge`);
* :mod:`repro.net.workloads` — the in-process workloads on that fixture
  whose recorded traces are verified by the checkers: the single-server
  push-staleness scenario and random mix (``repro net-demo``) and the
  multi-server soak with its grow and failover phases (``repro ring
  soak``).

See docs/NET_PROTOCOL.md for the wire format and failure semantics,
docs/RING.md for placement and the multi-clock epsilon composition.
"""

from repro.net.channel import Channel
from repro.net.client import (
    NetCacheClient,
    NetError,
    ProtocolError,
    RequestTimeout,
)
from repro.net.clocksync import ClockSyncEstimator, SyncedClock, SyncSample
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.framing import (
    FrameConnection,
    FrameError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    dial,
    encode_frame,
    listen,
)
from repro.net.local import FaultOutcome, LocalStack
from repro.net.ring_router import RingRouter, RouterStats
from repro.net.server import NetObjectServer
from repro.net.workloads import (
    ClusterReport,
    RingReport,
    ring_cluster,
    run_push_staleness_demo,
    run_ring_soak,
)

__all__ = [
    "Channel",
    "ClockSyncEstimator",
    "ClusterReport",
    "FaultConfig",
    "FaultInjector",
    "FaultOutcome",
    "FrameConnection",
    "FrameError",
    "LocalStack",
    "MAX_FRAME_BYTES",
    "NetCacheClient",
    "NetError",
    "NetObjectServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RequestTimeout",
    "RingReport",
    "RingRouter",
    "RouterStats",
    "SyncSample",
    "SyncedClock",
    "decode_frame",
    "dial",
    "encode_frame",
    "listen",
    "ring_cluster",
    "run_push_staleness_demo",
    "run_ring_soak",
]
