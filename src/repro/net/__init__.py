"""A real TCP replica cluster running the lifetime protocol.

Everything else in this repository runs either on the deterministic
simulator (:mod:`repro.sim`) or on in-process asyncio
(:mod:`repro.sim.aio`).  This package is the *distributed* counterpart:

* :mod:`repro.net.framing` — length-prefixed JSON frames over TCP and
  the one ``asyncio.Protocol`` that carries them;
* :mod:`repro.net.server` — the authoritative object server, speaking
  the protocol kinds of
  :mod:`repro.engine.messages` plus the clock-sync handshake;
* :mod:`repro.net.client` — the Sections 5.1-5.2 cache client with
  request retry/backoff and push/invalidate handling;
* :mod:`repro.net.clocksync` — NTP-style offset/epsilon estimation so
  every client runs an approximately synchronized clock (Definition 2);
* :mod:`repro.net.faults` — frame-level delay/drop/duplicate/partition
  injection;
* :mod:`repro.net.demo` — in-process localhost clusters whose recorded
  traces are verified by the offline checkers (the acceptance loop);
* :mod:`repro.net.ring_router` — the multi-server client: one
  connection per ring device, W-of-N replicated writes, primary-first
  reads, per-server clock sync composed onto one reference timescale;
* :mod:`repro.net.ring_demo` — the multi-server soak harness behind
  ``repro ring soak`` and the acceptance tests.

See docs/NET_PROTOCOL.md for the wire format and failure semantics,
docs/RING.md for placement and the multi-clock epsilon composition.
"""

from repro.net.client import (
    NetCacheClient,
    NetError,
    ProtocolError,
    RequestTimeout,
)
from repro.net.clocksync import ClockSyncEstimator, SyncedClock, SyncSample
from repro.net.demo import (
    ClusterReport,
    run_push_staleness_demo,
    run_random_net_workload,
)
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
from repro.net.ring_demo import RingReport, ring_cluster, run_ring_soak
from repro.net.ring_router import RingRouter, RouterStats
from repro.net.server import NetObjectServer

__all__ = [
    "ClockSyncEstimator",
    "ClusterReport",
    "FaultConfig",
    "FaultInjector",
    "FrameConnection",
    "FrameError",
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
    "run_random_net_workload",
]
