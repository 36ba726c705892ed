"""The sans-I/O timed-consistency engine (the paper's protocol, once).

The lifetime protocol of Sections 5.1-5.3 used to be implemented twice —
once on the deterministic simulator (:mod:`repro.protocol`) and once
over real sockets (:mod:`repro.net`) — and the copies drifted: batching,
exactly-once dedup, ring epochs and recovery hooks existed only on the
TCP side.  This package is the single canonical implementation both
stacks now drive:

* :class:`ServerEngine` / :class:`CausalServerEngine` — the server half:
  fetch/validate/write install logic, the timescale +
  ``Context`` rule, the exactly-once :class:`ReplyCache`, ring-epoch
  adoption and the promotion (failover) rule.  ``execute(client_id,
  frame)`` consumes one request frame (a plain dict) and returns an
  :class:`EngineResult` describing every effect — the reply frame, the
  versions to WAL-log *before* the ack, the versions to propagate — for
  the transport driver to carry out.
* :class:`CacheEngine` / :class:`CausalCacheEngine` — the client half,
  in the same shape: ``begin_read``/``begin_write`` hand the driver the
  request frame to send (or a cache hit), ``finish_read``/
  ``finish_write`` take the reply frame, ``on_server_frame`` takes
  pushes and invalidations.  Underneath: the cache structure (versions
  with lifetimes, ``Context_i``, *old* entries) and rules 1-3.

Engines are pure state machines: no sockets, no event loop, no
simulator.  Time enters only through the injected ``clock`` (the node's
protocol timescale) and optional ``wall`` (ground truth, used by the
simulator to stamp trace times) callables — which is what makes the
conformance suite (drive both drivers, compare engine effects
byte-for-byte) and the frame fuzzer possible.
"""

from repro.engine.cache import (
    CacheEngine,
    CausalCacheEngine,
    ReadDecision,
    StalenessAction,
    WriteOp,
)
from repro.engine.effects import EngineResult
from repro.engine.reply_cache import ReplyCache
from repro.engine.server import (
    ERROR,
    CausalServerEngine,
    ServerEngine,
    version_payload,
)

__all__ = [
    "ERROR",
    "CacheEngine",
    "CausalCacheEngine",
    "CausalServerEngine",
    "EngineResult",
    "ReadDecision",
    "ReplyCache",
    "ServerEngine",
    "StalenessAction",
    "WriteOp",
    "version_payload",
]
