"""Δ-aware crash recovery: rebuild state *and* timed-consistency metadata.

The paper's lifetime protocol is stateful in two ways a crash destroys:
the object versions with their lifetimes ``[X_iᵅ, X_iʷ]``, and the
node's ``Context_i`` — the latest instant whose writes it has promised
to reflect.  Restoring only the values would silently void every timed
guarantee: a revived server has been blind for its whole downtime, so it
cannot bound the Δ-visibility window of anything it last validated
before the crash.  Recovery therefore restores both, conservatively:

1. **Timescale resume.**  All persisted times live on the *persistent
   timescale*: seconds since the store was created.  ``meta.json``
   anchors that timescale to the wall clock (``origin_unix``), so the
   restart instant is ``t_restart = max(wall_now - origin_unix,
   last_persisted_time)`` — monotone across restarts even if the wall
   clock stepped backwards.  The server rebases its clock to resume at
   ``t_restart``, so post-recovery install times always exceed
   pre-crash ones (time never runs backwards through a crash).

2. **State replay.**  Load the snapshot (CRC-checked; a corrupt one is
   quarantined and recovery falls back to the log alone), then replay
   the WAL suffix in append order, installing each write iff its
   effective time exceeds the installed version's — the same
   latest-write-wins rule the live server applies.

3. **Context restore (paper §5, Rule 3 shape).**  Set
   ``Context := max(persisted Context, t_restart − Δ)``.  The second
   term is the crash-shaped instance of Rule 3: a node that must honor
   TSC(Δ) may never claim a context older than ``now − Δ``, and for a
   node that just woke up, *now* is ``t_restart``.

4. **Old-marking (the TCC invalidation rule, applied to downtime).**
   Any version whose checking time — the latest instant it was known
   current, ``X_iᵝ``, persisted here as ``omega`` — satisfies
   ``X_iᵝ < t_restart − Δ`` is marked **old**: the node cannot prove it
   was current during the blind window, so it must not serve it as
   fresh on its pre-crash evidence.  The server re-proves such a
   version on first touch by the single-authority argument: every
   acknowledged write is WAL-logged *before* its ack, the replay above
   is therefore complete, so no write can have changed the object while
   the authority was down — the touch instant becomes the new checking
   time and the version rejoins the live set (counted as a
   ``recovered revalidation``, so the event is observable).

:class:`DurableStore` packages the log + snapshot + recovery lifecycle
for one server; :func:`history_from_wal` turns a recovered store into
checker input, so the offline TSC/TCC checkers can *prove* a recovery
preserved timed consistency.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.core.history import History
from repro.core.io import atomic_write_json
from repro.core.operations import Operation, write
from repro.engine.versions import PhysicalVersion
from repro.store.snapshot import (
    SnapshotError,
    load_snapshot,
    quarantine_snapshot,
    state_from_versions,
    versions_from_state,
)
from repro.store.wal import (
    ReplayResult, WriteAheadLog, quarantine_tail, replay,
)

META_FILE = "meta.json"
WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot.json"

META_VERSION = 1

#: A serving store snapshots (and truncates its log) once this many
#: appends, or one per object it holds if more, accumulated since the
#: last: recovery replays about one snapshot's worth of records at most.
SNAPSHOT_EVERY = 512

#: Record kinds in the WAL.
REC_WRITE = "w"  #: one installed write: obj, value, t (= alpha), writer
REC_OPEN = "open"  #: a recovery/open event: t (= t_restart), context


@dataclass
class StoreState:
    """A read-only view of a store directory (no mutation, no handles).

    What ``repro store inspect``/``verify`` work from; :meth:`DurableStore.open` builds on the same load but
    additionally quarantines corruption and opens the WAL for appending.
    """

    root: str
    meta: Dict[str, Any]
    objects: Dict[str, PhysicalVersion]
    context: float
    last_time: float  #: latest persisted instant on the store timescale
    wal: ReplayResult
    write_records: int
    snapshot_state: Optional[Dict[str, Any]]
    snapshot_error: Optional[str]

    @property
    def clean(self) -> bool:
        """True when the next start needs no log replay: the WAL is
        empty and the snapshot was written by a graceful shutdown."""
        return (
            self.wal.clean
            and not self.wal.records
            and self.snapshot_state is not None
            and bool(self.snapshot_state.get("clean"))
        )

    @property
    def recoverable(self) -> bool:
        """True when committed state can be rebuilt (a torn WAL tail is
        recoverable — the prefix survives; a corrupt snapshot with no
        log to fall back on is not)."""
        return self.snapshot_error is None or bool(self.wal.records)


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.open` rebuilt and restored."""

    objects: Dict[str, PhysicalVersion]
    context: float
    resume_time: float  #: t_restart on the persistent timescale
    old_objects: Set[str] = field(default_factory=set)
    replayed_records: int = 0
    snapshot_loaded: bool = False
    snapshot_quarantined: Optional[str] = None
    wal_quarantined: Optional[str] = None
    quarantined_bytes: int = 0
    clean_start: bool = False  #: previous shutdown was graceful
    recovery_seconds: float = 0.0
    ring: Optional[Dict[str, Any]] = None  #: last ring this device acknowledged

    @property
    def empty(self) -> bool:
        return not self.objects and self.replayed_records == 0


def _load_meta(root: str) -> Optional[Dict[str, Any]]:
    try:
        with open(os.path.join(root, META_FILE), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # meta is re-creatable: only the wall anchor is lost


def load_state(root: str) -> StoreState:
    """Read a store directory without touching it (inspect/verify/handoff)."""
    meta = _load_meta(root) or {}
    snapshot_state: Optional[Dict[str, Any]] = None
    snapshot_error: Optional[str] = None
    try:
        snapshot_state = load_snapshot(os.path.join(root, SNAPSHOT_FILE))
    except SnapshotError as exc:
        snapshot_error = str(exc)
    objects: Dict[str, PhysicalVersion] = (
        versions_from_state(snapshot_state) if snapshot_state else {}
    )
    context = float(snapshot_state["context"]) if snapshot_state else 0.0
    last_time = float(snapshot_state["taken_at"]) if snapshot_state else 0.0
    result = replay(os.path.join(root, WAL_FILE))
    write_records = 0
    for record in result.records:
        kind = record.get("k")
        t = float(record.get("t", 0.0))
        last_time = max(last_time, t)
        if kind == REC_WRITE:
            write_records += 1
            version = PhysicalVersion(
                str(record["obj"]), record["value"], t, t,
                int(record.get("writer", -1)),
            )
            current = objects.get(version.obj)
            if current is None or t > current.alpha:
                objects[version.obj] = version
            context = max(context, t)
        elif kind == REC_OPEN:
            context = max(context, float(record.get("context", t)))
    return StoreState(
        root=root,
        meta=meta,
        objects=objects,
        context=context,
        last_time=max(last_time, context),
        wal=result,
        write_records=write_records,
        snapshot_state=snapshot_state,
        snapshot_error=snapshot_error,
    )


class DurableStore:
    """The persistence engine one object server owns.

    ``root`` is a directory holding ``wal.log``, ``snapshot.json`` and
    ``meta.json``.  Call :meth:`open` once at startup (it recovers and
    returns the rebuilt state), :meth:`log_write` before acknowledging
    each write, :meth:`maybe_snapshot` after installs, and
    :meth:`close_clean` from the graceful-shutdown path.

    ``recovery_delta`` is the freshness bound Δ the recovery rules run
    at; ``math.inf`` (the default) restores state and timescale but
    marks nothing old — right for a server whose clients enforce their
    own deltas and wrong for one that promises TSC(Δ) itself.

    ``crash_after_appends`` is a fault-injection hook for crash tests
    (and nothing else): after that many WAL appends the process SIGKILLs
    *itself* — precisely between the append and the acknowledgement,
    the window the log exists to cover.

    ``registry`` (a :class:`repro.obs.metrics.Registry`) binds
    :class:`~repro.obs.instruments.StoreInstruments`: fsync latency
    histogram and snapshot count, and — read from the store at scrape
    time — WAL record/byte counts, snapshot age and recovery counts.
    """

    def __init__(
        self,
        root: str,
        *,
        fsync: str = "interval",
        recovery_delta: float = math.inf,
        registry: Optional[Any] = None,
        metric_labels: Optional[Dict[str, Any]] = None,
        crash_after_appends: Optional[int] = None,
    ) -> None:
        if recovery_delta < 0:
            raise ValueError(
                f"recovery_delta must be non-negative, got {recovery_delta}"
            )
        self.root = root
        self.fsync = fsync
        self.recovery_delta = recovery_delta
        self.crash_after_appends = crash_after_appends
        self.wal: Optional[WriteAheadLog] = None
        self.recovered: Optional[RecoveredState] = None
        self._appends_since_snapshot = 0
        self._grouped = False  # inside a group() bracket
        self._last_snapshot_wall: Optional[float] = None
        self._origin_unix: Optional[float] = None
        self._meta: Dict[str, Any] = {}
        self.instruments = None
        if registry is not None:
            from repro.obs.instruments import StoreInstruments

            self.instruments = StoreInstruments(
                registry, self, **(metric_labels or {})
            )

    # -- lifecycle -----------------------------------------------------------

    def open(self, now_wall: Optional[float] = None) -> RecoveredState:
        """Recover the directory and open the WAL for appending."""
        started = time.perf_counter()
        if now_wall is None:
            now_wall = time.time()
        os.makedirs(self.root, exist_ok=True)
        meta = _load_meta(self.root)
        if meta is None or "origin_unix" not in meta:
            meta = {"version": META_VERSION, "origin_unix": now_wall}
            atomic_write_json(os.path.join(self.root, META_FILE), meta)
        self._origin_unix = float(meta["origin_unix"])
        self._meta = dict(meta)

        snapshot_quarantined = None
        state = load_state(self.root)
        if state.snapshot_error is not None:
            snapshot_quarantined = quarantine_snapshot(
                os.path.join(self.root, SNAPSHOT_FILE)
            )
        on_fsync = (
            self.instruments.on_fsync if self.instruments is not None else None
        )
        wal_path = os.path.join(self.root, WAL_FILE)
        wal_sidecar = quarantine_tail(wal_path, state.wal)
        self.wal = WriteAheadLog(
            wal_path, fsync=self.fsync, on_fsync=on_fsync,
        )
        if self.instruments is not None:
            self.instruments.wal = self.wal

        # Timescale resume: never earlier than anything already persisted.
        t_restart = max(now_wall - self._origin_unix, state.last_time, 0.0)
        context = state.context
        old: Set[str] = set()
        if not math.isinf(self.recovery_delta):
            bound = t_restart - self.recovery_delta
            context = max(context, bound)
            old = {
                obj for obj, version in state.objects.items()
                if version.omega < bound
            }
        clean_start = state.clean

        recovered = RecoveredState(
            objects=state.objects,
            context=context,
            resume_time=t_restart,
            old_objects=old,
            replayed_records=len(state.wal.records),
            snapshot_loaded=state.snapshot_state is not None,
            snapshot_quarantined=snapshot_quarantined,
            wal_quarantined=wal_sidecar,
            quarantined_bytes=state.wal.tail_bytes,
            clean_start=clean_start,
            ring=meta.get("ring"),
        )
        if not recovered.empty or not clean_start:
            # Persist the recovery event itself: the restored context and
            # the restart instant become part of the durable record.
            self.wal.append({
                "k": REC_OPEN, "t": t_restart, "context": context,
                "recovered": len(state.objects), "old": len(old),
            })
            self.wal.flush(sync=True)
        recovered.recovery_seconds = time.perf_counter() - started
        self.recovered = recovered
        self._last_snapshot_wall = (
            time.time() if state.snapshot_state is not None else None
        )
        return recovered

    def close(self, sync: bool = True) -> None:
        if self.wal is not None:
            self.wal.close(sync=sync)
            self.wal = None

    def close_clean(
        self, objects: Dict[str, PhysicalVersion], context: float, now: float
    ) -> None:
        """The graceful-shutdown path: final snapshot, truncate the WAL,
        fsync everything — the next start replays nothing."""
        self.snapshot(objects, context, now=now, clean=True)
        self.close(sync=True)

    # -- the write path ------------------------------------------------------

    def log_write(self, version: PhysicalVersion) -> None:
        """Append one installed write; call *before* acknowledging it."""
        self._log((version,))

    def log_writes(self, versions: Sequence[PhysicalVersion]) -> None:
        """Append several installed writes with a single flush/fsync;
        call *before* acknowledging any of them.  Nothing in the package
        calls it any more (a pipelined burst shares one fsync through
        :meth:`group`); it stays because the layered benchmark's tracer
        patches it by name."""
        self._log(versions)

    def _log(self, versions: Sequence[PhysicalVersion]) -> None:
        if self.wal is None:
            raise RuntimeError("store is not open; call open() first")
        self.wal.append_many([
            {
                "k": REC_WRITE,
                "t": version.alpha,
                "obj": version.obj,
                "value": version.value,
                "writer": version.writer,
            }
            for version in versions
        ], commit=not self._grouped)
        self._appends_since_snapshot += len(versions)
        if self.crash_after_appends is not None:
            self.crash_after_appends -= len(versions)
            if self.crash_after_appends <= 0:
                self.wal.flush(sync=True)  # the appends must hit the disk
                os.kill(os.getpid(), signal.SIGKILL)

    @contextlib.contextmanager
    def group(self) -> Iterator[None]:
        """The group-commit bracket: a ``log_write``/``log_writes`` made
        inside it only appends, and is durable, under the fsync policy,
        once the log is committed (:meth:`commit_soon`, ``wal.commit()``).
        Outside it each call commits itself."""
        self._grouped = True
        try:
            yield
        finally:
            self._grouped = False

    def commit_soon(self) -> "Optional[asyncio.Future[float]]":
        """Commit every grouped append so far, the fsync on the log's
        worker thread (:meth:`WriteAheadLog.commit_soon`).  If it fails,
        none of them may be acknowledged."""
        return self.wal.commit_soon() if self.wal is not None else None

    # -- cluster ring --------------------------------------------------------

    def save_ring(self, ring: Dict[str, Any]) -> bool:
        """Durably record the serialized ring this device has
        acknowledged.

        Written into ``meta.json`` (atomic rename), monotone: a ring no
        newer than the saved one is ignored.  On restart the server
        resumes ``RecoveredState.ring``, so it serves the layout it left
        with and never one the cluster already moved past.  Returns
        whether it persisted.  A store written before the ring was kept
        held only its epoch, under ``ring_epoch``; that key is dropped.
        """
        saved = self._meta.get("ring")
        if saved is not None and ring["epoch"] <= saved["epoch"]:
            return False
        self._meta["ring"] = ring
        self._meta.pop("ring_epoch", None)
        self._meta.setdefault("version", META_VERSION)
        if self._origin_unix is not None:
            self._meta.setdefault("origin_unix", self._origin_unix)
        atomic_write_json(os.path.join(self.root, META_FILE), self._meta)
        return True

    # -- snapshots -----------------------------------------------------------

    def snapshot(
        self,
        objects: Dict[str, PhysicalVersion],
        context: float,
        *,
        now: float,
        clean: bool = False,
    ) -> None:
        """Write a compacted snapshot and truncate the WAL behind it."""
        from repro.store.snapshot import write_snapshot

        write_snapshot(
            os.path.join(self.root, SNAPSHOT_FILE),
            state_from_versions(
                objects, taken_at=now, context=context, clean=clean
            ),
        )
        if self.wal is not None:
            self.wal.truncate()
        self._appends_since_snapshot = 0
        self._last_snapshot_wall = time.time()
        if self.instruments is not None:
            self.instruments.on_snapshot()

    def maybe_snapshot(
        self, objects: Dict[str, PhysicalVersion], context: float, now: float
    ) -> bool:
        """Snapshot iff ``max(SNAPSHOT_EVERY, len(objects))`` appends
        accumulated since the last one, so the log never outgrows the
        snapshot that replaces it; returns whether one was written."""
        if self._appends_since_snapshot < max(SNAPSHOT_EVERY, len(objects)):
            return False
        self.snapshot(objects, context, now=now)
        return True

    @property
    def snapshot_age(self) -> float:
        """Wall seconds since the last snapshot (inf when none exists)."""
        if self._last_snapshot_wall is None:
            return math.inf
        return max(0.0, time.time() - self._last_snapshot_wall)


def history_from_wal(
    path: str,
    *,
    initial_value: Any = 0,
    validate: bool = False,
) -> History:
    """A recovered store (or bare WAL file) as checker input.

    Every durably recorded write becomes a ``w`` operation at its
    effective time, sited at its writer — exactly the server-side ground
    truth a :class:`~repro.sim.trace.TraceRecorder` would have held.
    Merge it with the clients' recorded traces (the ``repro merge``
    dedup handles the overlap: an acknowledged write appears in both)
    and the offline TSC/TCC checkers can *prove* that recovery preserved
    timed consistency — including for writes that were logged but whose
    acknowledgement the crash ate.

    ``path`` may be a store directory or a WAL file.  For a directory,
    writes compacted into the snapshot are reconstructed from its object
    states, so compaction does not hide history from the checker.
    Validation defaults off: a WAL holds only writes, and reads-from
    validation needs the merged trace.
    """
    operations: List[Operation] = []
    seen = set()

    def add_write(site: int, obj: str, value: Any, t: float) -> None:
        key = (site, obj, value, t)
        if key in seen:
            return
        seen.add(key)
        operations.append(write(site, obj, value, t))

    if os.path.isdir(path):
        state = load_state(path)
        if state.snapshot_state is not None:
            for obj, fields in state.snapshot_state.get("objects", {}).items():
                writer = int(fields.get("writer", -1))
                alpha = float(fields["alpha"])
                if writer < 0 and alpha == 0.0:
                    continue  # the implicit initial value, not a write
                add_write(writer, obj, fields["value"], alpha)
        records = state.wal.records
    else:
        records = replay(path).records
    for record in records:
        if record.get("k") != REC_WRITE:
            continue
        add_write(
            int(record.get("writer", -1)),
            str(record["obj"]),
            record["value"],
            float(record["t"]),
        )
    return History(
        operations, initial_value=initial_value, validate=validate
    )
