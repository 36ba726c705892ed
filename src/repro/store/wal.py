"""The append-only write-ahead log.

One file of length-prefixed JSON records — the same codec discipline as
the wire frames of :mod:`repro.net.framing`, hardened for disk with a
checksum: every record is

    +----------------+----------------+----------------------------------+
    | 4 bytes        | 4 bytes        | N bytes                          |
    | N (big-endian) | CRC32(payload) | UTF-8 JSON object                |
    +----------------+----------------+----------------------------------+

The length prefix makes record boundaries explicit (a record is either
whole or it is the torn tail of a crash); the CRC catches the torn tail
*and* bit rot inside an otherwise well-framed record.  JSON keeps the
log debuggable — ``repro store inspect`` is a pretty-printer, but so is
``xxd`` plus squinting.

Durability is a policy, not a constant (the classic group-commit
trade-off; cf. Redis AOF ``appendfsync``):

* ``"always"``   — fsync at every commit (one per append, or one per
  group of ``append_many(..., commit=False)``); an acknowledged write
  survives an immediate power cut.
* ``"interval"`` — fsync at most once per ``FSYNC_INTERVAL`` seconds
  (appends in between are written to the OS but not forced); bounds the
  loss window to the interval while amortizing the fsync cost.
* ``"never"``    — never fsync explicitly; the OS flushes when it
  pleases.  Fastest, weakest, and exactly what the in-memory seed did.

A snapshot (:mod:`repro.store.snapshot`) is written in this codec too:
:meth:`WriteAheadLog.compact` makes one durable and then empties the
log, on the thread that runs ``commit_soon``'s fsyncs.

Recovery (:func:`replay`, then :func:`quarantine_tail`) reads the
longest well-formed prefix.  On the first malformed record —
truncated header, truncated payload, CRC mismatch, undecodable JSON —
the prefix is kept, the remaining bytes are moved to a ``*.quarantine``
sidecar (never silently destroyed: a human can audit what the crash
ate), and the log is truncated back to the good prefix so appends resume
at a clean boundary.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.core.io import atomic_write_bytes

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)

#: A record larger than this is corruption, not data (mirrors the frame
#: cap of :mod:`repro.net.framing`).
MAX_RECORD_BYTES = 1 << 20

FSYNC_POLICIES = ("always", "interval", "never")

#: Under ``fsync="interval"``, a commit fsyncs iff this many seconds
#: passed since the last fsync: the most a power cut can take.
FSYNC_INTERVAL = 0.05


_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


class WalError(Exception):
    """A malformed WAL record or a misused log handle."""


def encode_record(record: Dict[str, Any]) -> bytes:
    """Serialize one record to ``length || crc || JSON`` bytes."""
    return frame_record(_encode(record).encode("utf-8"))


def frame_record(payload: bytes) -> bytes:
    """``length || crc || payload``, ``payload`` a record's JSON."""
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(payload: bytes, crc: int) -> Dict[str, Any]:
    """Parse one record payload, verifying its checksum."""
    if zlib.crc32(payload) != crc:
        raise WalError("record CRC mismatch")
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalError(f"undecodable record: {exc}") from None
    if not isinstance(record, dict):
        raise WalError(f"record is not a JSON object: {type(record).__name__}")
    return record


@dataclass
class ReplayResult:
    """What a replay recovered, and where (and why) it stopped."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    encoded: List[bytes] = field(default_factory=list)  #: each record, as read
    good_bytes: int = 0  #: length of the well-formed prefix
    tail_bytes: int = 0  #: bytes past the prefix (0 for a clean log)
    tail_error: Optional[str] = None  #: why the tail is unusable

    @property
    def clean(self) -> bool:
        return self.tail_bytes == 0


def replay(path: str) -> ReplayResult:
    """Read the longest well-formed prefix of a WAL file.

    Never raises on corruption and never mutates the file: the result
    reports the good records, the prefix length, and the size/cause of
    any unusable tail.  A missing file replays as empty.
    """
    result = ReplayResult()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return result
    at = 0
    while at < len(data):
        if at + _HEADER.size > len(data):
            result.tail_error = "truncated record header"
            break
        length, crc = _HEADER.unpack_from(data, at)
        if length > MAX_RECORD_BYTES:
            result.tail_error = f"announced record of {length} bytes"
            break
        end = at + _HEADER.size + length
        if end > len(data):
            result.tail_error = "truncated record payload"
            break
        try:
            record = decode_record(data[at + _HEADER.size:end], crc)
        except WalError as exc:
            result.tail_error = str(exc)
            break
        result.records.append(record)
        result.encoded.append(data[at:end])
        at = end
    result.good_bytes = at
    result.tail_bytes = len(data) - at
    return result


def sidecar_path(path: str, kind: str) -> str:
    """The first free ``<path>.<kind>-<n>``, where corrupt bytes are set aside."""
    n = 0
    while os.path.exists(f"{path}.{kind}-{n}"):
        n += 1
    return f"{path}.{kind}-{n}"


def quarantine_tail(path: str, result: ReplayResult) -> Optional[str]:
    """Move a corrupt tail to a ``*.quarantine-<n>`` sidecar and truncate
    the log to its good prefix.  Returns the sidecar path (None when the
    log was already clean)."""
    if result.clean:
        return None
    with open(path, "rb") as fh:
        fh.seek(result.good_bytes)
        tail = fh.read()
    sidecar = sidecar_path(path, "quarantine")
    atomic_write_bytes(sidecar, tail)
    with open(path, "r+b") as fh:
        fh.truncate(result.good_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    return sidecar


class _SyncWorker:
    """``commit_soon``'s executor: a daemon thread, ``wal-fsync``, started
    at the first job, woken by one byte on a socketpair per job and
    answering with one byte on a second pair, whose read end the loop
    watches.  It takes the GIL back three times a job (recv, job, send),
    not once per step of ``concurrent.futures``.  :meth:`submit` returns
    an asyncio future, which ``run_in_executor`` passes through."""

    def __init__(self) -> None:
        self._thread: Optional[threading.Thread] = None
        self._todo: Deque[tuple] = collections.deque()  # (future, fn, args)
        self._done: Deque[tuple] = collections.deque()  # (future, settle, outcome)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "asyncio.Future[Any]":
        loop = asyncio.get_running_loop()
        if self._thread is None:
            self._loop = loop
            (self._wake, self._woken), (self._answered, self._answer) = (
                socket.socketpair(), socket.socketpair())
            loop.add_reader(self._answered, self._resolve)
            self._thread = threading.Thread(target=self._run, name="wal-fsync", daemon=True)
            self._thread.start()
        future = loop.create_future()
        self._todo.append((future, fn, args))
        self._wake.send(b"\0")
        return future

    def _run(self) -> None:
        while self._woken.recv(1):
            future, fn, args = self._todo.popleft()
            try:
                self._done.append((future, future.set_result, fn(*args)))
            except Exception as exc:
                self._done.append((future, future.set_exception, exc))
            self._answer.send(b"\0")

    def _resolve(self) -> None:
        self._answered.recv(64)  # the answers themselves are in _done
        while self._done:
            future, settle, outcome = self._done.popleft()
            future.cancelled() or settle(outcome)

    def close(self) -> None:
        """Let every job submitted finish, resolve it, close the thread;
        a later :meth:`submit` starts a new one."""
        if self._thread is not None:
            self._wake.close()  # the thread reads EOF after the last job
            self._thread.join()
            self._thread = None
            if self._done and not self._loop.is_closed():
                self._resolve()  # its answer byte is still unread
            self._loop.remove_reader(self._answered)
            for end in (self._woken, self._answered, self._answer):
                end.close()


class WriteAheadLog:
    """An open, appendable WAL file with a configurable fsync policy.

    ``on_fsync`` (when given) is called with each fsync's duration in
    seconds — the hook :class:`repro.obs.instruments.StoreInstruments`
    feeds its latency histogram from — on the caller's thread (the
    loop's, for :meth:`commit_soon`), before any later record reaches
    the OS: :attr:`size` in it is on disk.

    :attr:`compacting` is the future of the last :meth:`compact` run on
    the worker: until it is done no record reaches the file.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "interval",
        on_fsync: Optional[Callable[[float], None]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        self.on_fsync = on_fsync
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self._fh = open(path, "ab")
        self._pending: List[bytes] = []  # appended, not yet handed to the OS
        self._last_sync = time.monotonic()
        self._dirty = False  # handed to the OS, not yet synced
        self._worker = _SyncWorker()  # commit_soon's fsync thread
        self.compacting: "Optional[asyncio.Future[None]]" = None

    @property
    def size(self) -> int:
        """Current log length in bytes."""
        return os.path.getsize(self.path)

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the bytes written.  Whether the
        record is *durable* on return depends on the fsync policy."""
        return self.append_many((record,))

    def append_many(
        self, records: Sequence[Dict[str, Any]], *, commit: bool = True
    ) -> int:
        """Append several records and :meth:`commit` them once; returns
        the bytes written.  With ``commit=False`` the records stay in the
        process's memory and the caller owes the :meth:`commit` — the
        seam group commit amortizes fsyncs through: under
        ``fsync="always"`` N appends pay one fsync instead of N."""
        return self.append_encoded([encode_record(r) for r in records], commit=commit)

    def append_encoded(self, encoded: Sequence[bytes], *, commit: bool = True) -> int:
        """:meth:`append_many` of records :func:`encode_record` already
        encoded."""
        if self._fh.closed:
            raise WalError(f"log {self.path} is closed")
        self._pending.extend(encoded)
        self.records_appended += len(encoded)
        total = sum(map(len, encoded))
        self.bytes_appended += total
        if total and commit:
            self.commit()
        return total

    def hand_off(self) -> bool:
        """Hand every appended record to the OS (a plain crash then loses
        nothing), after a :meth:`compact` in flight, which it waits for;
        returns whether the policy owes an fsync now."""
        if self.compacting is not None and not self.compacting.done():
            self._worker.close()  # no record may reach the file before it is emptied
        self.compacting = None
        if self._pending:
            self._fh.write(b"".join(self._pending))
            self._pending.clear()
            self._fh.flush()
            self._dirty = True
        return self._dirty and (self.fsync == "always" or (
            self.fsync == "interval"
            and time.monotonic() - self._last_sync >= FSYNC_INTERVAL
        ))

    def commit(self) -> None:
        """:meth:`hand_off`, then the fsync it owes: the one durability
        point.  Raises what the disk raises, still owing the records."""
        if self.hand_off():
            self._synced(self._fsync(self._fh.fileno()))

    def commit_soon(self) -> "Optional[asyncio.Future[float]]":
        """:meth:`commit`, its fsync on the log's one thread: ``None`` if
        none is owed, else its future (of the fsync's seconds), resolved
        on the loop once the completion is applied.  Appends meanwhile
        stay in memory; behind a :meth:`compact` in flight, the commit
        starts once it is done."""
        if self.compacting is not None and not self.compacting.done():
            return asyncio.ensure_future(self._commit_after(self.compacting))
        if not self.hand_off():
            return None
        syncing = asyncio.get_running_loop().run_in_executor(
            self._worker, self._fsync, self._fh.fileno())
        syncing.add_done_callback(lambda done: done.cancelled()
                                  or done.exception() or self._synced(done.result()))
        return syncing

    async def _commit_after(self, compacting: "asyncio.Future[None]") -> float:
        await asyncio.wait((compacting,))
        syncing = self.commit_soon()
        return 0.0 if syncing is None else await syncing

    def compact(self, write: Callable[[], None]) -> "Optional[asyncio.Future[None]]":
        """Replace the log by a snapshot: ``write`` makes durable one of
        every record appended so far, then the log is emptied, on the
        log's thread behind any fsync queued there (:attr:`compacting`,
        returned) or, with no loop running, here.  If ``write`` raises,
        the log keeps every record."""
        self.hand_off()
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return self._compact(write)
        self.compacting = loop.run_in_executor(self._worker, self._compact, write)
        return self.compacting

    def _compact(self, write: Callable[[], None]) -> None:
        write()
        os.ftruncate(self._fh.fileno(), 0)
        os.fsync(self._fh.fileno())

    def flush(self, sync: bool = True) -> None:
        """Hand appended records to the OS; ``sync`` forces them to stable
        storage regardless of policy (the shutdown path uses this)."""
        if self._fh.closed:
            return
        self.hand_off()
        if sync and self._dirty:
            self._synced(self._fsync(self._fh.fileno()))

    @staticmethod
    def _fsync(fd: int) -> float:
        """``os.fsync(fd)``, looked up at the call; returns its seconds."""
        started = time.perf_counter()
        os.fsync(fd)
        return time.perf_counter() - started

    def _synced(self, elapsed: float) -> None:
        self._last_sync = time.monotonic()
        self._dirty = False
        self.fsyncs += 1
        if self.on_fsync is not None:
            self.on_fsync(elapsed)

    def close(self, sync: bool = True) -> None:
        if self._fh.closed:
            return
        self._worker.close()  # an fsync or a compact in flight returns first
        self.flush(sync=sync)
        self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
