"""Server-side engines: the authoritative store as a pure state machine.

:class:`ServerEngine` is the physical-clock (SC/TSC) server of Sections
5.1-5.2; :class:`CausalServerEngine` the logical-clock (CC/TCC) server of
Section 5.3.  Both consume request *frames* — plain dicts with a
``kind`` and the request's fields — via :meth:`execute` and return an
:class:`~repro.engine.effects.EngineResult`; the transport drivers
(:class:`repro.protocol.server.SimServer` on the simulator,
:class:`repro.net.server.NetObjectServer` on TCP) own sockets,
persistence and propagation fan-out, but no protocol logic.

Time is injected: ``clock`` is the server's protocol timescale (install
times ``alpha``, validation times ``omega``, checking times ``beta`` are
stamped with it); the optional ``wall`` callable is ground truth — when
set, write acks carry a ``true_time`` field stamped *at install*, and
the exactly-once replay returns the original ack unchanged, so a
retransmitted write keeps one effective time in the recorded trace.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.clocks.base import Ordering
from repro.clocks.vector import VectorTimestamp
from repro.engine.effects import EngineResult
from repro.engine.reply_cache import ReplyCache
from repro.engine import messages
from repro.engine.versions import LogicalVersion, PhysicalVersion

#: Reply kind for malformed/unknown frames (same wire token as
#: ``repro.net.framing.ERROR``; defined here so the engine stays free of
#: transport imports).
ERROR = "error"


def version_payload(version: PhysicalVersion) -> Dict[str, Any]:
    """The JSON-scalar fields of a version frame."""
    return {
        "obj": version.obj,
        "value": version.value,
        "alpha": version.alpha,
        "omega": version.omega,
        "writer": version.writer,
    }


class _EngineBase:
    """State and plumbing shared by both server engines: the exactly-once
    reply cache, the ring epoch, counters, and the journal tap."""

    def __init__(self, clock: Callable[[], float], *, reply_cache_size: int,
                 wall: Optional[Callable[[], float]]) -> None:
        self.clock = clock
        self.wall = wall
        self.replies = ReplyCache(reply_cache_size)
        # Cluster plumbing (repro.cluster; docs/CLUSTER.md).  ``epoch``
        # is the monotone ring-layout version this server acknowledges;
        # 0 means "no cluster" and keeps every reply epoch-free: a
        # standalone server sets no flag and sends no epoch.
        self.epoch = 0
        self.ring: Optional[Dict[str, Any]] = None  #: serialized Ring of ``epoch``
        self.requests = 0
        self.writes_installed = 0
        self.writes_discarded = 0
        self.dedup_replays = 0
        self.batch_frames = 0
        #: When set (a list), every executed (frame, result) pair is
        #: appended — the conformance suite's effect journal.
        self.journal: Optional[List[Dict[str, Any]]] = None

    # -- exactly-once dedup ---------------------------------------------------

    def dedup_key(self, client_id: int, frame: Dict[str, Any]) -> Optional[Tuple[int, int]]:
        """The reply-cache key for a frame, or ``None`` if the frame is
        not a dedupable request (no id, or a kind that must re-execute)."""
        req = frame.get("req")
        if req is None or frame.get("kind") not in messages.DEDUP_KINDS:
            return None
        return (client_id, int(req))

    def replay(self, key: Optional[Tuple[int, int]]) -> Optional[Dict[str, Any]]:
        """The cached reply for ``key`` if this request was already
        answered — counting the replay — else ``None``."""
        if key is None:
            return None
        reply = self.replies.get(key)
        if reply is not None:
            self.dedup_replays += 1
        return reply

    def execute(self, client_id: int, frame: Dict[str, Any]) -> EngineResult:
        """Run one request exactly once; replays never reach here (the
        driver consults :meth:`replay` first)."""
        kind = str(frame.get("kind"))
        result = self._execute(client_id, frame, kind)
        key = self.dedup_key(client_id, frame)
        if key is not None and result.reply.get("kind") != ERROR:
            # Cache before the driver sends: if the ack is lost, the
            # retransmit (possibly after a reconnect) must replay rather
            # than re-execute.
            self.replies.put(key, result.reply)
        if self.journal is not None:
            self.journal.append({
                "frame": dict(frame),
                "reply": result.reply,
                "wal": list(result.wal),
                "installed": list(result.installed),
            })
        return result

    def _execute(self, client_id: int, frame: Dict[str, Any], kind: str) -> EngineResult:
        raise NotImplementedError

    def _error(self, frame: Dict[str, Any], message: str) -> EngineResult:
        return EngineResult({
            "kind": ERROR, "error": message, "req": frame.get("req"),
        })

    # -- propagation frames (the driver decides whether and to whom) ----------

    @staticmethod
    def invalidate_frame(version: Any) -> Dict[str, Any]:
        """The small invalidation of an installed version."""
        return {
            "kind": messages.INVALIDATE, "obj": version.obj, "alpha": version.alpha,
        }

    # -- ring epochs (repro.cluster; docs/CLUSTER.md) -------------------------

    def stamp(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp a reply with this server's ring epoch — the staleness
        signal routers act on.  Epoch 0 (standalone server) stamps
        nothing: its replies set no flag and send no epoch.  Called
        by the driver at *send* time, not at execution: the epoch may
        advance between execution and a much later replay, and the
        retransmitting router deserves the current one."""
        if self.epoch <= 0 or "epoch" in reply:
            return reply
        return {**reply, "epoch": self.epoch}

    def adopt_ring(self, ring_dict: Dict[str, Any]) -> bool:
        """Adopt a serialized ring iff its epoch is not behind ours.
        Persistence of the acknowledged epoch is the driver's effect."""
        epoch = int(ring_dict.get("epoch", 0))
        if epoch < self.epoch or (epoch == self.epoch and self.ring is not None):
            return False
        self.ring = dict(ring_dict)
        self.epoch = epoch
        return True


class ServerEngine(_EngineBase):
    """The physical-clock authoritative store (one per server site).

    State: the version dict, the server ``Context`` (largest install
    time acknowledged), the recovered-*old* marks of
    :mod:`repro.store.recovery`, and the exactly-once reply cache.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        initial_value: Any = 0,
        reply_cache_size: int = 1024,
        wall: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(clock, reply_cache_size=reply_cache_size, wall=wall)
        self.initial_value = initial_value
        self.store: Dict[str, PhysicalVersion] = {}
        self.context = 0.0
        self.recovered_old: Set[str] = set()
        self.revalidations = 0
        self.promotions = 0
        #: Driver hook: called once per recovered-old re-proof (the net
        #: driver wires it to the durable store's instruments).
        self.on_revalidation: Optional[Callable[[], None]] = None

    # -- the lifetime protocol, server side -----------------------------------

    def current(self, obj: str) -> PhysicalVersion:
        """The stored version, its ending time advanced to "now" (the
        server has just observed it to still be current)."""
        if obj not in self.store:
            self.store[obj] = PhysicalVersion(
                obj, self.initial_value, alpha=0.0, omega=0.0, writer=-1
            )
        version = self.store[obj]
        if obj in self.recovered_old:
            # Recovered-old version, first touch since the restart: the
            # server is the object's single write authority and every
            # acknowledged write was WAL-logged before its ack, so the
            # replay was complete and nothing changed during the blind
            # window — this touch re-proves the version current and the
            # advance below becomes its new checking time.
            self.recovered_old.discard(obj)
            self.revalidations += 1
            if self.on_revalidation is not None:
                self.on_revalidation()
        version.advance_omega(self.clock())
        return version

    def install(self, obj: str, value: Any, writer: int) -> Tuple[PhysicalVersion, bool]:
        """Stamp and install one write; returns ``(version, installed)``.

        The install instant is the write's effective time: the server
        stamps the version with its own clock, which makes the start
        times of an object's installed versions monotone.  An
        equally-stamped concurrent write loses (latest-write-wins by
        strict comparison); the loser's writer keeps its value cached
        locally, which is SC-safe — that client's reads serialize
        earlier.
        """
        install_time = self.clock()
        version = PhysicalVersion(obj, value, install_time, install_time, writer)
        current = self.store.get(obj)
        installed = current is None or install_time > current.alpha
        if installed:
            self.store[obj] = version.copy()
            self.context = max(self.context, install_time)
            self.recovered_old.discard(obj)  # overwritten, not stale
            self.writes_installed += 1
        else:
            self.writes_discarded += 1
        return version, installed

    def validate_one(self, obj: str, alpha: Any) -> Dict[str, Any]:
        """One if-modified-since judgement (Section 5.2)."""
        version = self.current(obj)
        if version.alpha == alpha:
            return {
                "kind": messages.STILL_VALID, "obj": obj, "omega": version.omega,
            }
        return {"kind": messages.VERSION, **version_payload(version.copy())}

    def push_frame(self, version: PhysicalVersion) -> Dict[str, Any]:
        """The eager push of an installed version."""
        return {"kind": messages.PUSH, **version_payload(version)}

    # -- failover (repro.cluster; docs/CLUSTER.md) ----------------------------

    def promote(self, bound: float) -> Dict[str, Any]:
        """Become write authority for partitions a dead primary held.

        The paper's single-authority argument, in the exact shape of
        store recovery (:mod:`repro.store.recovery`) with the *detection
        bound* playing Δ: the new primary cannot know what the dead one
        acknowledged during the last ``bound`` seconds, so

        1. ``Context := max(known, t_promote − bound)`` — it never
           claims a context older than its blind window allows;
        2. every version whose checking time predates ``t_promote −
           bound`` is marked **old** and re-proved on first touch by
           :meth:`current` (each re-proof counts a revalidation).
        """
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        t_promote = self.clock()
        floor = t_promote - bound
        self.context = max(self.context, floor)
        marked = {
            obj for obj, version in self.store.items()
            if version.omega < floor
        }
        self.recovered_old |= marked
        self.promotions += 1
        return {"t": t_promote, "context": self.context, "old": len(marked)}

    # -- frame dispatch -------------------------------------------------------

    def _execute(self, client_id: int, frame: Dict[str, Any], kind: str) -> EngineResult:
        if kind == messages.FETCH:
            self.requests += 1
            version = self.current(str(frame["obj"])).copy()
            return EngineResult({
                "kind": messages.VERSION, "req": frame.get("req"),
                **version_payload(version),
            })
        if kind == messages.VALIDATE:
            self.requests += 1
            reply = self.validate_one(str(frame["obj"]), frame.get("alpha"))
            reply["req"] = frame.get("req")
            return EngineResult(reply)
        if kind == messages.WRITE:
            self.requests += 1
            version, installed = self.install(
                str(frame["obj"]), frame["value"], client_id
            )
            reply = {
                "kind": messages.WRITE_ACK, "req": frame.get("req"),
                "obj": version.obj, "alpha": version.alpha,
                "installed": installed,
            }
            if self.wall is not None:
                reply["true_time"] = self.wall()
            return EngineResult(reply, wal=[version],
                                installed=[version] if installed else [])
        if kind == messages.VALIDATE_BATCH:
            return self._execute_validate_batch(frame)
        return self._error(frame, f"unknown message kind {kind!r}")

    def _execute_validate_batch(self, frame: Dict[str, Any]) -> EngineResult:
        """Judge a batch of validations in one frame; a null ``alpha``
        always ships the full version (bulk refresh)."""
        items = frame.get("items")
        if not isinstance(items, list) or not items:
            return self._error(frame, "validate-batch needs a non-empty 'items' list")
        self.batch_frames += 1
        self.requests += len(items)
        results = [
            self.validate_one(str(item["obj"]), item.get("alpha"))
            for item in items
        ]
        return EngineResult({
            "kind": messages.VALIDATE_BATCH_ACK, "req": frame.get("req"),
            "results": results,
        })


class CausalServerEngine(_EngineBase):
    """The logical-clock authoritative store (CC/TCC, Section 5.3).

    The server keeps a running *knowledge* vector — the join of every
    timestamp it has seen.  A fetched version's ending time is
    ``alpha join requester_context``: because writes are synchronous and
    each object has a single home server, every write to the object that
    lies in the requester's causal past is already installed here, so the
    current version is valid with respect to the requester's entire
    context.  (Using the server's global knowledge instead would be
    unsound: it contains entries for unrelated clients' activity, which
    makes the ending time spuriously concurrent with later contexts and
    lets a cache serve a value that a causally newer same-object write
    should have superseded.)  The checking time ``beta`` is the server's
    physical now.

    Causal frames carry timestamp/version *objects*, not JSON scalars:
    there is no wire transport for this variant yet, only the simulator
    driver (:func:`repro.protocol.server.CausalServer`).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        vector_width: int,
        initial_value: Any = 0,
        zero_timestamp: Optional[Any] = None,
        reply_cache_size: int = 1024,
        wall: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(clock, reply_cache_size=reply_cache_size, wall=wall)
        self.initial_value = initial_value
        self.vector_width = vector_width
        self.zero_timestamp = (
            zero_timestamp
            if zero_timestamp is not None
            else VectorTimestamp.zero(vector_width)
        )
        self.knowledge = self.zero_timestamp
        self.store: Dict[str, LogicalVersion] = {}

    def current(
        self, obj: str, requester_context: Optional[Any] = None
    ) -> LogicalVersion:
        """A *copy* of the stored version, tailored to the requester.

        The stored version's own ending time stays at its start time; the
        reply copy's ending time is ``alpha join requester_context``.
        Accumulating contexts into the stored version would leak one
        client's causal past into another's ending time and break the
        soundness argument above.
        """
        if obj not in self.store:
            zero = self.zero_timestamp
            self.store[obj] = LogicalVersion(
                obj, self.initial_value, alpha=zero, omega=zero, writer=-1,
                beta=0.0,
            )
        stored = self.store[obj]
        stored.advance_beta(self.clock())
        reply = stored.copy()
        if requester_context is not None:
            reply.advance_omega(requester_context)
        return reply

    @staticmethod
    def _wins(incoming: LogicalVersion, current: LogicalVersion) -> bool:
        """Does the incoming write supersede the stored one?

        Causally later always wins; causally older (a stale retransmit,
        impossible with synchronous writes) loses.  A *concurrent* incoming
        write wins: each object has a single home server, so arrival order
        is a total install order, and the install instant is the write's
        effective time.  Install-order last-writer-wins keeps the stored
        version the effectively-latest write, which is what makes the TCC
        delta bound hold — if the effectively-older concurrent write could
        stay installed, every future read of it would miss the newer one
        forever, violating Definition 2 by more than the clock precision.
        """
        order = incoming.alpha.compare(current.alpha)
        return order is Ordering.AFTER or order is Ordering.CONCURRENT

    def install(self, incoming: LogicalVersion) -> Tuple[LogicalVersion, bool]:
        """Install a client-stamped write if it wins; returns the stored
        (or rejected incoming) version and whether it was installed."""
        self.knowledge = self.knowledge.join(incoming.alpha)
        current = self.store.get(incoming.obj)
        installed = current is None or self._wins(incoming, current)
        if installed:
            stored = incoming.copy()
            stored.advance_beta(self.clock())
            self.store[incoming.obj] = stored
            self.writes_installed += 1
            return stored, True
        self.writes_discarded += 1
        return incoming, False

    def push_frame(self, version: LogicalVersion) -> Dict[str, Any]:
        """The eager push of an installed version — one copy per
        receiver: a cache advances its entry's omega in place."""
        return {"kind": messages.PUSH, "version": version.copy()}

    def _execute(self, client_id: int, frame: Dict[str, Any], kind: str) -> EngineResult:
        if kind == messages.FETCH:
            self.requests += 1
            version = self.current(str(frame["obj"]), frame.get("context"))
            return EngineResult({
                "kind": messages.VERSION, "req": frame.get("req"),
                "version": version.copy(),
            })
        if kind == messages.VALIDATE:
            self.requests += 1
            version = self.current(str(frame["obj"]), frame.get("context"))
            if version.alpha == frame.get("alpha"):
                reply = {
                    "kind": messages.STILL_VALID, "req": frame.get("req"),
                    "obj": version.obj, "omega": version.omega,
                    "beta": version.beta,
                }
            else:
                reply = {
                    "kind": messages.VERSION, "req": frame.get("req"),
                    "version": version.copy(),
                }
            return EngineResult(reply)
        if kind == messages.WRITE:
            self.requests += 1
            incoming: LogicalVersion = frame["version"]
            stored, installed = self.install(incoming)
            reply = {
                "kind": messages.WRITE_ACK, "req": frame.get("req"),
                "obj": incoming.obj, "installed": installed,
                "beta": self.clock(),
            }
            if self.wall is not None:
                reply["true_time"] = self.wall()
            return EngineResult(reply, wal=[stored] if installed else [],
                                installed=[stored] if installed else [])
        return self._error(frame, f"unknown message kind {kind!r}")
