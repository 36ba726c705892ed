"""Client-side engines: the lifetime cache as a pure state machine.

:class:`CacheEngine` is the physical-clock cache of Sections 5.1-5.2
(rules 1-3); :class:`CausalCacheEngine` the vector-clock cache of
Section 5.3.  Like :meth:`repro.engine.ServerEngine.execute`, they speak
*frames*: :meth:`~_CacheBase.begin_read` classifies a read and — unless
the cache can serve it — returns the request frame to send;
:meth:`~_CacheBase.finish_read` takes the reply frame, applies rule 1 or
the ``still-valid`` renewal and returns the value;
:meth:`~_CacheBase.begin_write` / :meth:`~_CacheBase.finish_write` do the
same for a write-through (physical: rule 2 on the ack; causal: the local
write event, then the server's checking time), and
:meth:`~_CacheBase.on_server_frame` takes ``push``/``invalidate``.  The
rule methods underneath (``rule3``, ``lookup``, ``install_fetched``,
``apply_still_valid``, ``apply_write_ack`` ...) stay public — the expiry
oracle and the layered benchmark's tracer address them by name — but no
driver calls them.

The transport drivers — the simulator's
:class:`repro.protocol.cache_client.SimCacheClient` and the TCP
:class:`repro.net.client.NetCacheClient` — own request ids,
retransmission, futures/events and trace recording, and nothing else: a
driver adds its ``req`` to the frame an operation hands it, sends it,
and feeds the reply back.

Time is a parameter, not an import.  ``now`` is the site's protocol
clock ``t_i``: it arms rule 3 and the per-object bound, and ``None``
leaves a read untimed (the TCP client's push mode, which trusts the
server's pushes for freshness).  ``at`` is the same instant on the
driver's bookkeeping timescale — where it keeps ``fetched_at`` and
measures latency — and defaults to ``now``; only the simulator, whose
nodes read skewed clocks while its trace is kept in ground-truth time,
passes both.

Stat-keeping: the engine counts everything cache state or a reply frame
decides — ``reads``/``writes``, ``fresh_hits``/``validations``/
``fetches`` (the read decision), ``revalidated``/``refreshed`` (which
reply came back), ``read_latencies``, ``marked_old``/``invalidations``
(demotions), ``fetch_check_failures``, ``pushes``/
``push_invalidations``.  A driver counts only what
its transport decides: ``retries``.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.base import Ordering
from repro.engine import messages
from repro.engine.stats import ClientStats
from repro.engine.versions import CacheEntry, LogicalVersion, PhysicalVersion


class StalenessAction(enum.Enum):
    """What the Context rules do to an entry that fell behind."""

    INVALIDATE = "invalidate"  # drop: next access is a full fetch
    MARK_OLD = "mark-old"  # keep: next access validates (Section 5.2)


@dataclass
class ReadDecision:
    """One read, from the cache's classification to its completion.

    ``action`` is ``"hit"`` (serve ``value`` with no messages),
    ``"validate"`` (if-modified-since with the cached ``alpha``;
    ``value`` is the cached value the server is asked to vouch for), or
    ``"fetch"`` (cold miss: ask for the full version).  For the two that
    need the server, :meth:`_CacheBase.begin_read` fills in ``obj``,
    ``started`` and the request ``frame``.
    """

    action: str
    value: Any = None
    alpha: Any = None
    obj: str = ""
    started: float = 0.0
    frame: Optional[Dict[str, Any]] = None

    @property
    def hit(self) -> bool:
        return self.action == "hit"


@dataclass
class WriteOp:
    """A write-through awaiting its ack: the request ``frame`` to send,
    and what :meth:`_CacheBase.finish_write` and the driver's trace need
    back (``ltime`` is the write's logical timestamp, causal only)."""

    obj: str
    value: Any
    started: float
    frame: Dict[str, Any]
    ltime: Any = None


class _CacheBase:
    """Validation and demotion plumbing shared by both cache engines."""

    def __init__(
        self,
        *,
        site_id: int,
        delta: float,
        staleness_action: StalenessAction,
        delta_overrides: Optional[Dict[str, float]],
        stats: Optional[ClientStats],
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if delta_overrides and any(d < 0 for d in delta_overrides.values()):
            raise ValueError("delta overrides must be non-negative")
        self.site_id = site_id
        self.delta = delta
        self.delta_overrides = dict(delta_overrides or {})
        self.staleness_action = staleness_action
        self.stats = stats if stats is not None else ClientStats()
        self.cache: Dict[str, CacheEntry] = {}

    def delta_for(self, obj: str) -> float:
        """The freshness bound in force for ``obj``."""
        return self.delta_overrides.get(obj, self.delta)

    def _demote(self, obj: str, entry: CacheEntry) -> None:
        """Rule 1's invalidation clause, per the configured policy."""
        if self.staleness_action is StalenessAction.INVALIDATE:
            del self.cache[obj]
            self.stats.invalidations += 1
        elif not entry.old:
            entry.mark_old()
            self.stats.marked_old += 1

    def _store(self, version: Any, fetched_at: float) -> None:
        entry = self.cache.get(version.obj)
        if entry is None:
            self.cache[version.obj] = CacheEntry(version, fetched_at=fetched_at)
        else:
            entry.refresh(version, fetched_at)

    # -- the operation API: frames in, frames out -------------------------------

    def begin_read(
        self, obj: str, now: Optional[float], at: Optional[float] = None
    ) -> ReadDecision:
        """Start a read.  A ``hit`` is complete — serve ``value``; any
        other decision carries the request ``frame`` to send, and the
        reply goes to :meth:`finish_read`."""
        self.stats.reads += 1
        if now is not None:
            self.rule3(now)
        op = self.lookup(obj, now)
        if op.action == "hit":
            self.stats.read_latencies.append(0.0)
            return op
        op.obj = obj
        op.started = now if at is None else at
        if op.action == "validate":
            op.frame = {"kind": messages.VALIDATE, "obj": obj, "alpha": op.alpha}
        else:
            op.frame = {"kind": messages.FETCH, "obj": obj}
        return op

    def finish_read(self, op: ReadDecision, reply: Dict[str, Any], now: float) -> Any:
        """Apply the reply to a read begun earlier; returns the value.

        A ``version`` reply is rule 1.  ``still-valid`` renews the entry
        the read validated — if it is still that entry: a reordered
        ``invalidate`` or ``push`` may have dropped or replaced it while
        the validation was in flight.  The server vouched for the
        validated value at ``omega``, inside this read's interval, so
        the read completes with it either way; only the renewal is
        skipped, and nothing is re-cached."""
        kind = reply.get("kind")
        if kind == messages.VERSION:
            version = self._version_of(reply)
            self.install_fetched(version, now)
            if op.action == "validate":
                self.stats.refreshed += 1
            value = version.value
        elif kind == messages.STILL_VALID and op.action == "validate":
            entry = self.cache.get(op.obj)
            if entry is not None and entry.version.alpha == op.alpha:
                self._renew(op.obj, reply)
            self.stats.revalidated += 1
            value = op.value
        else:
            raise ValueError(f"bad {op.action} reply: {reply!r}")
        self.stats.read_latencies.append(now - op.started)
        return value

    def on_server_frame(self, frame: Dict[str, Any], now: float) -> None:
        """Server-initiated traffic: a ``push`` or an ``invalidate``."""
        kind = frame.get("kind")
        if kind == messages.PUSH:
            self.apply_push(self._version_of(frame), now)
        elif kind == messages.INVALIDATE:
            self.apply_invalidate(frame["obj"], frame["alpha"])
        else:
            raise ValueError(f"not a server-initiated frame: {frame!r}")

    def logical_time(self) -> Any:
        """The site's logical clock reading, for trace records (``None``
        on the physical engine, which has none)."""
        return None

    # -- shared rule plumbing ---------------------------------------------------

    def rule3(self, now: float) -> None:
        """Rule 3's global context advance; the causal engine has none
        (it enforces delta per entry, through ``beta`` in ``usable``)."""

    def lookup(self, obj: str, now: Optional[float] = None) -> ReadDecision:
        """Classify a read (counting the decision's stats): fresh hit,
        if-modified-since validation, or cold fetch."""
        entry = self.cache.get(obj)
        if entry is not None and self.usable(entry, now):
            entry.hits += 1
            self.stats.fresh_hits += 1
            return ReadDecision("hit", value=entry.version.value)
        if entry is not None:
            self.stats.validations += 1
            return ReadDecision(
                "validate", value=entry.version.value, alpha=entry.version.alpha
            )
        self.stats.fetches += 1
        return ReadDecision("fetch")

    def usable_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The versions this cache would serve right now, per object."""
        return {
            obj: entry.version
            for obj, entry in self.cache.items()
            if self.usable(entry, now)
        }


class CacheEngine(_CacheBase):
    """Physical-clock lifetime cache: SC when ``delta`` is infinite,
    TSC(delta) otherwise.

    Ending times are real numbers, so the entries rules 1-3 must demote
    are a prefix of the omega order.  ``_expiry`` is a min-heap of
    ``(omega, obj)`` records with lazy deletion: every entry that is
    cached and not *old* has a record carrying its current omega, pushed
    by :meth:`_store` and :meth:`apply_still_valid` — the only places an
    entry becomes fresh or has its omega advanced.  A rule costs
    amortised O(log n) per install/validation plus one demotion per entry
    that actually expires, not a scan of the cache (DESIGN.md section 7)."""

    def __init__(
        self,
        *,
        site_id: int = -1,
        delta: float = math.inf,
        staleness_action: StalenessAction = StalenessAction.MARK_OLD,
        delta_overrides: Optional[Dict[str, float]] = None,
        stats: Optional[ClientStats] = None,
    ) -> None:
        super().__init__(
            site_id=site_id, delta=delta, staleness_action=staleness_action,
            delta_overrides=delta_overrides, stats=stats,
        )
        self.context = 0.0
        # The overrides are fixed at construction; ``delta`` is a plain
        # attribute its owner may reassign, so only their maximum is cached.
        self._loosest_override = max(self.delta_overrides.values(), default=0.0)
        self._expiry: List[Tuple[float, str]] = []

    # -- the rules ------------------------------------------------------------

    def rule3(self, now: float) -> None:
        """Rule 3 (Section 5.2): Context_i := max(t_i - delta, Context_i).

        With per-object overrides the global advance uses the *loosest*
        bound in force (tighter per-object bounds are enforced in
        :meth:`usable`), so a loose override is not defeated by the
        global context."""
        loosest = max(self.delta, self._loosest_override)
        if math.isinf(loosest):
            return
        self.advance_context(now - loosest)

    def advance_context(self, candidate: float) -> None:
        """Raise Context_i and demote every entry whose ending time fell
        behind it (rule 1's invalidation clause)."""
        if candidate <= self.context:
            return
        self.context = candidate
        expiry = self._expiry
        while expiry and expiry[0][0] < candidate:
            obj = heapq.heappop(expiry)[1]
            entry = self.cache.get(obj)
            if entry is not None and not entry.old and entry.version.omega < candidate:
                self._demote(obj, entry)

    def _track(self, obj: str, omega: float) -> None:
        """Record that ``obj`` is fresh with ending time ``omega``.

        Superseded records wait for Context_i to pass them — with an
        infinite delta and server invalidations, for ever — so past twice
        the cache's size (plus slack, for small caches) the heap is
        rebuilt from the entries that can still expire."""
        expiry = self._expiry
        heapq.heappush(expiry, (omega, obj))
        if len(expiry) > 2 * len(self.cache) + 64:
            expiry[:] = [
                (entry.version.omega, name)
                for name, entry in self.cache.items() if not entry.old
            ]
            heapq.heapify(expiry)

    def _store(self, version: PhysicalVersion, fetched_at: float) -> None:
        super()._store(version, fetched_at)
        self._track(version.obj, version.omega)

    def usable(self, entry: CacheEntry, now: Optional[float] = None) -> bool:
        """May this cached version be returned with no messages?

        ``now`` arms the per-object delta bound; passing ``None`` skips
        it — the TCP client's push mode, which trusts the server's
        pushes for freshness."""
        if entry.old or entry.version.omega < self.context:
            return False
        if now is not None:
            bound = self.delta_for(entry.version.obj)
            if not math.isinf(bound):
                if entry.version.omega < now - bound:
                    return False
        return True

    # -- writes, read batches, and reading reply frames -------------------------

    def begin_write(
        self, obj: str, value: Any, now: float, at: Optional[float] = None
    ) -> WriteOp:
        """Start a write-through: the server stamps the install time, so
        the frame carries only the object and the value."""
        self.stats.writes += 1
        return WriteOp(
            obj, value, now if at is None else at,
            {"kind": messages.WRITE, "obj": obj, "value": value},
        )

    def finish_write(self, op: WriteOp, reply: Dict[str, Any], now: float) -> float:
        """Rule 2 on the ack; returns the server-assigned install time."""
        if reply.get("kind") != messages.WRITE_ACK:
            raise ValueError(f"bad write reply: {reply!r}")
        alpha = float(reply["alpha"])
        self.apply_write_ack(op.obj, op.value, alpha, now)
        return alpha

    def read_batch_frame(self, ops: Sequence[ReadDecision]) -> Dict[str, Any]:
        """Several begun reads as one ``validate-batch`` frame (a cold
        fetch travels as a null ``alpha``)."""
        return {
            "kind": messages.VALIDATE_BATCH,
            "items": [{"obj": op.obj, "alpha": op.alpha} for op in ops],
        }

    def finish_read_batch(
        self, ops: Sequence[ReadDecision], reply: Dict[str, Any], now: float
    ) -> List[Any]:
        """:meth:`finish_read` per item of a ``validate-batch-ack``."""
        results = reply.get("results")
        if (reply.get("kind") != messages.VALIDATE_BATCH_ACK
                or not isinstance(results, list) or len(results) != len(ops)):
            raise ValueError(f"bad validate-batch reply for {len(ops)} items: {reply!r}")
        return [self.finish_read(op, result, now) for op, result in zip(ops, results)]

    def _version_of(self, frame: Dict[str, Any]) -> PhysicalVersion:
        return PhysicalVersion(
            str(frame["obj"]), frame["value"],
            float(frame["alpha"]), float(frame["omega"]),
            int(frame.get("writer", -1)),
        )

    def _renew(self, obj: str, reply: Dict[str, Any]) -> None:
        self.apply_still_valid(obj, float(reply["omega"]))

    # -- applying server replies ----------------------------------------------

    def install_fetched(self, version: PhysicalVersion, fetched_at: float) -> None:
        """Rule 1: Context_i := max(alpha, Context_i); sweep; store."""
        if version.omega < self.context:
            # Cross-server case: sound to accept because writes are
            # synchronous (see the design notes in
            # repro.protocol.cache_client).
            self.stats.fetch_check_failures += 1
            version.advance_omega(self.context)
        self.advance_context(version.alpha)
        self._store(version, fetched_at)

    def apply_still_valid(self, obj: str, omega: float) -> "tuple[bool, Any]":
        """A STILL_VALID reply: advance the ending time, clear *old*.
        Returns ``(entry found, cached value)``."""
        entry = self.cache.get(obj)
        if entry is None:
            return False, None
        entry.version.advance_omega(omega)
        entry.old = False
        self._track(obj, entry.version.omega)
        return True, entry.version.value

    def apply_write_ack(
        self, obj: str, value: Any, alpha: float, fetched_at: float
    ) -> PhysicalVersion:
        """Rule 2: Context_i := the write's install time; cache own copy."""
        version = PhysicalVersion(obj, value, alpha, alpha, self.site_id)
        self.advance_context(alpha)
        self._store(version, fetched_at)
        return version

    def apply_push(self, version: PhysicalVersion, fetched_at: float) -> bool:
        """A server push: install iff strictly newer than what we hold."""
        self.stats.pushes += 1
        entry = self.cache.get(version.obj)
        if entry is None or version.alpha > entry.version.alpha:
            self.install_fetched(version, fetched_at)
            return True
        return False

    def apply_invalidate(self, obj: str, alpha: float) -> None:
        """A server invalidation: demote the entry if it is older."""
        self.stats.push_invalidations += 1
        entry = self.cache.get(obj)
        if entry is not None and entry.version.alpha < alpha:
            self._demote(obj, entry)

    # -- invariants -----------------------------------------------------------

    def snapshot_mutually_consistent(self, now: Optional[float] = None) -> bool:
        """Section 5.1's cache-consistency invariant: the usable entries'
        lifetimes pairwise overlap (max start time <= min ending time), so
        all served values coexisted at some instant.  Holds by
        construction — ``Context_i`` is the max start time ever seen and
        usable entries have ``omega >= Context_i`` — and is asserted by
        the tests as a protocol invariant."""
        versions = list(self.usable_snapshot(now).values())
        if not versions:
            return True
        max_alpha = max(v.alpha for v in versions)
        min_omega = min(v.omega for v in versions)
        return max_alpha <= min_omega


class CausalCacheEngine(_CacheBase):
    """Vector-clock lifetime cache: CC when ``delta`` is infinite,
    TCC(delta) otherwise (via the checking time ``beta``)."""

    def __init__(
        self,
        *,
        site_id: int,
        vclock: Any,
        zero_timestamp: Any,
        delta: float = math.inf,
        staleness_action: StalenessAction = StalenessAction.MARK_OLD,
        delta_overrides: Optional[Dict[str, float]] = None,
        stats: Optional[ClientStats] = None,
    ) -> None:
        super().__init__(
            site_id=site_id, delta=delta, staleness_action=staleness_action,
            delta_overrides=delta_overrides, stats=stats,
        )
        self.vclock = vclock
        self.context = zero_timestamp
        # The context as of the last sweep, while no entry has since been
        # made fresh with an ending time already behind it; else None.
        self._swept: Any = None

    # -- the rules ------------------------------------------------------------

    def usable(self, entry: CacheEntry, now: Optional[float] = None) -> bool:
        """No messages needed iff the entry is not old, its ending time has
        not fallen causally behind Context_i, and (TCC only) its checking
        time is within the object's delta of the local clock."""
        if entry.old:
            return False
        if entry.version.omega_causally_before(self.context):
            return False
        if now is not None:
            bound = self.delta_for(entry.version.obj)
            if not math.isinf(bound):
                beta = entry.version.beta or 0.0
                if beta < now - bound:
                    return False
        return True

    def sweep(self) -> None:
        """Invalidate (or mark old) entries causally behind Context_i."""
        for obj, entry in list(self.cache.items()):
            if entry.old:
                continue
            if entry.version.omega_causally_before(self.context):
                self._demote(obj, entry)
        self._swept = self.context

    # -- writes, and reading reply frames ---------------------------------------

    def begin_read(
        self, obj: str, now: Optional[float], at: Optional[float] = None
    ) -> ReadDecision:
        """As the base, and the request carries ``Context_i``: the server
        answers with an ending time valid for this site's causal past."""
        op = super().begin_read(obj, now, at)
        if op.frame is not None:
            op.frame["context"] = self.context
        return op

    def begin_write(
        self, obj: str, value: Any, now: float, at: Optional[float] = None
    ) -> WriteOp:
        """Start a write-through: the write is a local event (see
        :meth:`local_write`) and the frame ships the stamped version."""
        self.stats.writes += 1
        started = now if at is None else at
        version = self.local_write(obj, value, now, started)
        return WriteOp(
            obj, value, started, {"kind": messages.WRITE, "version": version},
            ltime=version.alpha,
        )

    def finish_write(self, op: WriteOp, reply: Dict[str, Any], now: float) -> None:
        """The ack brings the server's checking time for our copy."""
        if reply.get("kind") != messages.WRITE_ACK:
            raise ValueError(f"bad write reply: {reply!r}")
        self.apply_write_beta(op.obj, reply.get("beta"))

    def logical_time(self) -> Any:
        return self.vclock.now()

    def _version_of(self, frame: Dict[str, Any]) -> LogicalVersion:
        return frame["version"]

    def _renew(self, obj: str, reply: Dict[str, Any]) -> None:
        self.apply_still_valid(obj, reply["omega"], reply.get("beta"))

    # -- local writes and server replies --------------------------------------

    def local_write(
        self, obj: str, value: Any, birth: float, fetched_at: float
    ) -> LogicalVersion:
        """A write as a local event: the vector clock ticks and the
        version's start time is the new local timestamp (rule 2 adapted
        to logical clocks: ``Context_i := alpha := local logical time``).
        Local copies advance with the local logical clock and are never
        invalidated by a local update (Section 5.3)."""
        alpha = self.vclock.tick()
        self.context = self.context.join(alpha)
        version = LogicalVersion(
            obj, value, alpha=alpha, omega=alpha, writer=self.site_id,
            beta=birth, birth=birth,
        )
        for entry in self.cache.values():
            entry.version.advance_omega(alpha)
        self._store(version.copy(), fetched_at)
        return version

    def install_fetched(self, version: LogicalVersion, fetched_at: float) -> None:
        """Rule 1 adapted: Context_i := join(alpha, Context_i); sweep.

        The server already stamped ``omega = alpha join our_context`` (the
        paper's "ending time not causally before Context_i" requirement),
        so the check below only fires for pushes or for contexts that grew
        while the request was in flight; such a version is accepted but
        left with its smaller omega, so the next access revalidates it.
        """
        if version.omega.compare(self.context) is Ordering.BEFORE:
            self.stats.fetch_check_failures += 1
        self.vclock.merge(version.alpha)
        self.context = self.context.join(version.alpha)
        # Vector omegas are only partially ordered, so the sweep stays a
        # full scan — skipped when the last one ran at this same context
        # and nothing was left behind it since: it would find nothing.
        if self._swept is None or self.context.compare(self._swept) is not Ordering.EQUAL:
            self.sweep()
        self._store(version, fetched_at)
        if version.omega_causally_before(self.context):
            self._swept = None

    def apply_still_valid(
        self, obj: str, omega: Any, beta: Optional[float]
    ) -> "tuple[bool, Any]":
        """A STILL_VALID reply: join the ending time, advance the
        checking time, clear *old*; returns ``(found, cached value)``."""
        entry = self.cache.get(obj)
        if entry is None:
            return False, None
        entry.version.advance_omega(omega)
        if beta is not None:
            entry.version.advance_beta(beta)
        entry.old = False
        if entry.version.omega_causally_before(self.context):
            self._swept = None
        return True, entry.version.value

    def apply_write_beta(self, obj: str, beta: Optional[float]) -> None:
        """The server's checking time for an acknowledged write."""
        entry = self.cache.get(obj)
        if entry is not None and beta is not None:
            entry.version.advance_beta(beta)

    def apply_push(self, version: LogicalVersion, fetched_at: float) -> bool:
        """A server push: install iff causally after what we hold."""
        self.stats.pushes += 1
        entry = self.cache.get(version.obj)
        if entry is None or version.alpha.compare(entry.version.alpha) is Ordering.AFTER:
            self.install_fetched(version, fetched_at)
            return True
        return False

    def apply_invalidate(self, obj: str, alpha: Any) -> None:
        """A server invalidation: demote if causally older."""
        self.stats.push_invalidations += 1
        entry = self.cache.get(obj)
        if entry is not None and entry.version.alpha.compare(alpha) is Ordering.BEFORE:
            self._demote(obj, entry)

    # -- invariants -----------------------------------------------------------

    def snapshot_mutually_consistent(self, now: Optional[float] = None) -> bool:
        """Section 5.1's invariant under logical lifetimes: no usable
        entry's start time is causally after another's ending time (their
        lifetimes overlap in the causal order, possibly concurrently)."""
        versions = list(self.usable_snapshot(now).values())
        for a in versions:
            for b in versions:
                if a is b:
                    continue
                if b.omega.compare(a.alpha) is Ordering.BEFORE:
                    return False
        return True
