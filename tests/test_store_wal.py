"""Unit tests for the store's on-disk primitives.

The WAL (record codec, fsync policies, longest-well-formed-prefix
replay, tail quarantine), the CRC-checked snapshots, and the shared
atomic-write helper that both the snapshots and the metrics registry
saves go through (a torn file must never be observable).
"""

import ast
import asyncio
import errno
import json
import os
import pathlib
import shutil
import struct
import sys
import threading
import time
import types
import zlib

import pytest

from repro.core.io import atomic_write_bytes, atomic_write_json
from repro.engine.versions import PhysicalVersion
from repro.obs.metrics import Registry, load_snapshot as load_metrics_snapshot
from repro.store import (
    DurableStore,
    SnapshotError,
    WalError,
    WriteAheadLog,
    encode_record,
    load_snapshot,
    load_state,
    quarantine_snapshot,
    quarantine_tail,
    replay,
)
from repro.store import wal as wal_module
from repro.store.recovery import SNAPSHOT_EVERY
from repro.store.snapshot import snapshot_bytes
from repro.store.wal import FSYNC_INTERVAL, MAX_RECORD_BYTES, decode_record

_HEADER = struct.Struct(">II")


def write_legacy_snapshot(path, versions, *, taken_at, context, clean=False):
    """A ``snapshot.json`` in the earlier format: one JSON document, its
    CRC over the canonical ``state``."""
    state = {"taken_at": taken_at, "context": context, "clean": clean, "objects": {
        obj: {"value": v.value, "alpha": v.alpha, "omega": v.omega, "writer": v.writer}
        for obj, v in versions.items()}}
    canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(f'{{"crc":{zlib.crc32(canonical.encode())},"state":{canonical},"version":1}}\n')
    return state


@pytest.fixture
def monotonic(monkeypatch):
    """The WAL's ``time.monotonic`` as a list to set: ``[seconds]``."""
    now = [0.0]
    fake = types.SimpleNamespace(
        monotonic=lambda: now[0], perf_counter=time.perf_counter
    )
    monkeypatch.setattr("repro.store.wal.time", fake)
    return now


def _append_raw(path, data: bytes) -> None:
    with open(path, "ab") as fh:
        fh.write(data)


class TestRecordCodec:
    def test_decode_reverses_encode(self):
        record = {"k": "w", "obj": "x", "value": "s0.1", "t": 1.5}
        data = encode_record(record)
        length, crc = _HEADER.unpack_from(data)
        assert length == len(data) - _HEADER.size
        assert decode_record(data[_HEADER.size:], crc) == record

    def test_a_record_is_pinned_to_its_bytes(self):
        """Keys sorted, no spaces, ASCII escapes: the bytes of every log
        record written so far, which a snapshot now copies verbatim."""
        assert encode_record(
            {"writer": 2, "value": "s\u00e9.1", "t": 1.5, "obj": "x", "k": "w"}
        ) == (b'\x00\x00\x00:\xd1\xba08'
              b'{"k":"w","obj":"x","t":1.5,"value":"s\\u00e9.1","writer":2}')

    def test_a_write_record_is_the_encoders_bytes(self):
        """The store formats a write's record itself when its fields have
        a server's types, and encodes any other through the encoder: the
        bytes are the encoder's either way."""
        import random

        from repro.store.recovery import _encode_write

        rng = random.Random(7)
        texts = ["", "x", "s1.2", 'q"uo\\te', "tab\tnl\n", "\u00e9\u4e2d\U0001f600",
                 "\x00\x1f\x7f", "\ud800"]
        values = texts + [0, -3, 2 ** 70, 1.5, True, None, float("inf")]
        for _ in range(2000):
            t = rng.choice([0.0, 1e-9, 12.5, 1e21, 123456.789012345, rng.random() * 1e6,
                            float("nan"), float("-inf"), 7])
            version = PhysicalVersion(rng.choice(texts) + str(rng.random()), rng.choice(values),
                                      t, t, rng.choice([-1, 0, 5, True]))
            assert _encode_write(version) == encode_record({
                "k": "w", "obj": version.obj, "t": version.alpha,
                "value": version.value, "writer": version.writer,
            }), version

    def test_a_changed_payload_fails_its_crc(self):
        data = encode_record({"k": "w"})
        _, crc = _HEADER.unpack_from(data)
        with pytest.raises(WalError, match="CRC"):
            decode_record(data[_HEADER.size:].replace(b"w", b"v"), crc)

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"\xff\xfe", b"{oops"])
    def test_a_payload_that_is_no_json_object_is_refused(self, payload):
        with pytest.raises(WalError):
            decode_record(payload, zlib.crc32(payload))

    def test_an_oversized_record_is_refused(self):
        with pytest.raises(WalError, match="exceeds"):
            encode_record({"v": "x" * MAX_RECORD_BYTES})


class TestWalRoundtrip:
    def test_append_then_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = [
            {"k": "w", "obj": "x", "value": f"s0.{i}", "t": float(i)}
            for i in range(10)
        ]
        with WriteAheadLog(path, fsync="never") as log:
            for record in records:
                log.append(record)
        result = replay(path)
        assert result.clean
        assert result.records == records
        assert result.good_bytes == os.path.getsize(path)

    def test_missing_file_replays_empty(self, tmp_path):
        result = replay(str(tmp_path / "absent.log"))
        assert result.clean
        assert result.records == []

    def test_fsync_policies(self, tmp_path):
        for policy, expect_every in (("always", True), ("never", False)):
            path = str(tmp_path / f"{policy}.log")
            log = WriteAheadLog(path, fsync=policy)
            for i in range(5):
                log.append({"i": i})
            if expect_every:
                assert log.fsyncs == 5
            else:
                assert log.fsyncs == 0
            log.close(sync=False)

    def test_interval_policy_amortizes(self, tmp_path, monotonic):
        path = str(tmp_path / "interval.log")
        log = WriteAheadLog(path, fsync="interval")
        for i in range(50):
            monotonic[0] += FSYNC_INTERVAL / 100
            log.append({"i": i})
        assert log.fsyncs == 0  # interval never elapsed
        monotonic[0] = FSYNC_INTERVAL  # since the log opened
        log.append({"i": 50})
        assert log.fsyncs == 1  # now it had: the append synced
        log.append({"i": 51})
        assert log.fsyncs == 1  # and the interval restarts there
        log.flush(sync=True)
        assert log.fsyncs == 2  # the explicit flush forced one
        log.close()

    def test_fsync_hook_reports_durations(self, tmp_path):
        durations = []
        log = WriteAheadLog(
            str(tmp_path / "wal.log"), fsync="always",
            on_fsync=durations.append,
        )
        log.append({"a": 1})
        log.append({"a": 2})
        log.close()
        assert len(durations) == 2
        assert all(d >= 0 for d in durations)

    def test_grouped_appends_are_committed_once(self, tmp_path):
        """``append_many(..., commit=False)`` owes one ``commit()``: one
        flush and one policy check for all, and the hook runs after both
        (``size`` inside it is what the disk has)."""
        path = str(tmp_path / "wal.log")
        synced = []
        log = WriteAheadLog(path, fsync="always")
        log.on_fsync = lambda elapsed: synced.append(log.size)
        for i in range(8):
            log.append_many([{"i": i}], commit=False)
        assert log.fsyncs == 0 and log.size == 0  # still in the process
        assert log.records_appended == 8
        log.commit()
        assert log.fsyncs == 1
        assert synced == [log.size] and log.size == log.bytes_appended
        log.commit()  # nothing appended since: nothing to do
        assert log.fsyncs == 1
        log.append_many([{"i": 8}, {"i": 9}])  # commits itself, as append does
        assert log.fsyncs == 2
        log.close()
        assert [r["i"] for r in replay(path).records] == list(range(10))

    @pytest.mark.parametrize("policy, elapsed, fsyncs", [
        ("interval", FSYNC_INTERVAL, 1), ("interval", 0.0, 0),
        ("never", FSYNC_INTERVAL, 0),
    ])
    def test_a_commit_consults_the_policy_once(
        self, tmp_path, monotonic, policy, elapsed, fsyncs
    ):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, fsync=policy)
        for i in range(8):
            log.append_many([{"i": i}], commit=False)
        monotonic[0] += elapsed
        log.commit()
        assert log.fsyncs == fsyncs
        assert len(replay(path).records) == 8  # out of the process either way
        log.close(sync=False)

    def test_a_failed_commit_still_owes_the_records(self, tmp_path, monkeypatch):
        log = WriteAheadLog(str(tmp_path / "wal.log"), fsync="always")
        log.append_many([{"a": 1}], commit=False)
        fsync = os.fsync

        def no_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", no_fsync)
        with pytest.raises(OSError):
            log.commit()
        assert log.fsyncs == 0
        monkeypatch.setattr(os, "fsync", fsync)
        log.commit()
        assert log.fsyncs == 1
        log.close()

    def test_truncate_drops_everything(self, tmp_path):
        """``compact`` with no loop running: its ``write``, then the log
        emptied, here; an append after it starts the log again."""
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, fsync="never")
        log.append_many([{"a": 1}], commit=False)
        sizes = []
        assert log.compact(lambda: sizes.append(os.path.getsize(path))) is None
        log.append({"a": 2})
        log.close()
        assert sizes == [len(encode_record({"a": 1}))]  # handed off first
        assert [r["a"] for r in replay(path).records] == [2]

    def test_oversized_record_rejected(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(WalError):
            log.append({"blob": "x" * (1 << 21)})
        log.close()

    def test_closed_log_rejects_appends(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        log.close()
        with pytest.raises(WalError):
            log.append({"a": 1})

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "wal.log"), fsync="sometimes")


class TestTheFsyncWorker:
    """``commit_soon`` on a real loop: the fsync runs on the log's one
    ``wal-fsync`` thread, and its completion is applied on the loop's."""

    @staticmethod
    def staged(tmp_path, **options):
        log = WriteAheadLog(str(tmp_path / "wal.log"), fsync="always", **options)
        log.append_many([{"i": 1}], commit=False)
        return log

    def test_the_future_resolves_and_on_fsync_runs_on_the_loop(
        self, tmp_path, monkeypatch
    ):
        fsync, threads = os.fsync, []

        def traced(fd):
            threads.append(threading.current_thread().name)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", traced)

        async def scenario():
            log = self.staged(tmp_path, on_fsync=lambda elapsed: hooked.append(
                (threading.get_ident(), log.size)))
            elapsed = await asyncio.wait_for(log.commit_soon(), 2.0)
            assert log.commit_soon() is None  # nothing owed since
            log.close(sync=False)
            return log, elapsed

        hooked = []
        log, elapsed = asyncio.run(scenario())
        assert threads == ["wal-fsync"]
        assert isinstance(elapsed, float) and elapsed >= 0
        assert hooked == [(threading.get_ident(), log.bytes_appended)]
        assert log.fsyncs == 1

    def test_a_failed_fsync_fails_the_future_and_the_next_commit_syncs_again(
        self, tmp_path, monkeypatch
    ):
        fsync, calls = os.fsync, []

        def failing_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "Input/output error")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_once)

        async def scenario():
            log = self.staged(tmp_path, on_fsync=hooked.append)
            with pytest.raises(OSError, match="Input/output error"):
                await asyncio.wait_for(log.commit_soon(), 2.0)
            failed = log.fsyncs
            again = log.commit_soon()  # the log still owes the record
            assert again is not None
            await asyncio.wait_for(again, 2.0)
            log.close(sync=False)
            return failed, log.fsyncs

        hooked = []
        assert asyncio.run(scenario()) == (0, 1)
        assert len(calls) == 2 and len(hooked) == 1

    def test_close_with_a_job_in_flight_joins_the_thread_and_closes_its_sockets(
        self, tmp_path, monkeypatch
    ):
        fsync, entered, gate = os.fsync, threading.Event(), threading.Event()

        def held(fd):
            entered.set()
            gate.wait(5.0)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", held)

        def running():
            return [t for t in threading.enumerate() if t.name == "wal-fsync"]

        async def scenario():
            log, before = self.staged(tmp_path), running()
            syncing = log.commit_soon()
            while not entered.is_set():
                await asyncio.sleep(0.001)
            worker = log._worker
            (thread,) = [t for t in running() if t not in before]
            opener = threading.Timer(0.05, gate.set)
            opener.start()
            log.close()  # waits for the fsync in flight
            opener.join()
            sockets = (worker._wake, worker._woken, worker._answered, worker._answer)
            return thread, sockets, syncing.done() and syncing.result()

        thread, sockets, elapsed = asyncio.run(scenario())
        assert thread.daemon and not thread.is_alive()
        assert [s.fileno() for s in sockets] == [-1] * 4
        assert elapsed >= 0.05  # resolved with the held fsync's time

    def test_an_fsync_reports_its_own_duration_not_the_loops(
        self, tmp_path, monkeypatch
    ):
        """A 20 ms fsync, answered while the loop is busy for 40 ms more:
        ``on_fsync`` gets the fsync's time, not the handoff's."""
        monkeypatch.setattr(os, "fsync", lambda fd: time.sleep(0.02))

        async def scenario():
            log = self.staged(tmp_path, on_fsync=reported.append)
            syncing = log.commit_soon()
            time.sleep(0.04)  # the loop is busy while the worker answers
            await asyncio.wait_for(syncing, 2.0)
            log.close(sync=False)

        reported = []
        asyncio.run(scenario())
        assert len(reported) == 1 and 0.02 <= reported[0] < 0.03

    def test_jobs_from_many_workers_resolve_in_order_under_a_short_switch_interval(self):
        """Four workers (more than the cores), each handed 200 jobs at
        once, with the thread switch interval cut to 10 µs: every
        future gets its own job's result, in submission order."""

        async def scenario():
            loop = asyncio.get_running_loop()
            workers = [wal_module._SyncWorker() for _ in range(4)]
            futures = [[loop.run_in_executor(worker, lambda i=i, w=w: (w, i))
                        for i in range(200)] for w, worker in enumerate(workers)]
            try:
                return [await asyncio.wait_for(asyncio.gather(*jobs), 10.0)
                        for jobs in futures]
            finally:
                for worker in workers:
                    worker.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert results == [[(w, i) for i in range(200)] for w in range(4)]

    def test_the_log_imports_no_concurrent_futures(self):
        tree = ast.parse(pathlib.Path(wal_module.__file__).read_text())
        imported = [
            name for node in ast.walk(tree)
            for name in (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
        ]
        assert "asyncio" in imported
        assert not [name for name in imported if name.split(".")[0] == "concurrent"]


class TestTheSnapshotJob:
    """``DurableStore.snapshot`` on a running loop: the loop encodes the
    header and joins the bytes the log already encoded; the file I/O and
    the log's truncation run on the ``wal-fsync`` thread, behind the fsync
    of the commit that made the snapshot due."""

    @staticmethod
    def opened(root, **options):
        store = DurableStore(str(root), fsync="always", **options)
        store.open(now_wall=1000.0)
        return store

    @staticmethod
    def log(store, n, prefix="o", first=1.0, objects=None):
        """``n`` uncommitted writes, round-robin over ``objects`` (default
        ``n``) objects, one second apart from ``first``."""
        versions = [PhysicalVersion(f"{prefix}{i % (objects or n)}", f"{prefix}.{i}",
                                    first + i, first + i, 1) for i in range(n)]
        for version in versions:
            store.log_write(version, commit=False)
        return versions

    def test_a_snapshot_encodes_one_record_on_the_loop(self, tmp_path, monkeypatch):
        """Of a 1 024-object store: its header, counted, not timed."""
        encoded, real = [], wal_module._encode

        def counted(record):
            encoded.append((threading.current_thread().name, record.get("k")))
            return real(record)

        async def scenario():
            store = self.opened(tmp_path)
            self.log(store, 1024)
            await store.wal.commit_soon()
            monkeypatch.setattr(wal_module, "_encode", counted)
            store.snapshot(1024.0, now=1025.0)
            await store.wal.compacting
            monkeypatch.setattr(wal_module, "_encode", real)
            store.close()

        asyncio.run(scenario())
        assert encoded == [("MainThread", "snapshot")]
        state = load_state(str(tmp_path))
        assert len(state.objects) == 1024 and state.wal.records == []

    def test_a_discarded_write_keeps_its_objects_record(self, tmp_path):
        """A write that lost latest-write-wins is logged (the engine's
        ``EngineResult.wal`` carries it) but replaces no snapshot record,
        as replay would not install it either."""
        store = self.opened(tmp_path)
        store.log_write(PhysicalVersion("x", "won", 2.0, 2.0, 1))
        store.log_write(PhysicalVersion("x", "lost", 2.0, 2.0, 2))  # same stamp
        store.log_write(PhysicalVersion("x", "older", 1.5, 1.5, 3))
        store.log_write(PhysicalVersion("y", "y1", 1.0, 1.0, 1))
        assert load_state(str(tmp_path)).objects["x"].value == "won"  # replay's rule
        store.snapshot(2.0, now=3.0)
        store.close()
        assert {obj: v.value for obj, v in load_state(str(tmp_path)).objects.items()} == {
            "x": "won", "y": "y1"}

    def test_an_old_json_snapshot_loads_and_the_next_is_records(self, tmp_path, capsys):
        """A store left by the earlier format recovers,
        ``repro store inspect`` and ``history_from_wal`` read it, and its
        next snapshot is in the log's codec and reads the same."""
        from repro.checkers import history_from_wal
        from repro.cli import main

        write_legacy_snapshot(str(tmp_path / "snapshot.json"), {
            "x": PhysicalVersion("x", "s1.1", 1.0, 4.0, 1),
            "z": PhysicalVersion("z", 0, 0.0, 4.0, -1),  # an initial value
        }, taken_at=4.0, context=4.0)

        def read_back():
            assert main(["store", "inspect", str(tmp_path), "--objects"]) == 0
            history = history_from_wal(str(tmp_path))
            return capsys.readouterr().out, sorted(
                (op.obj, op.value, op.time) for op in history.operations)

        before, history = read_back()
        assert "snapshot: taken at t=4.000" in before and "3 objects" not in before
        assert history == [("x", "s1.1", 1.0)]
        store = self.opened(tmp_path)
        assert store.recovered.objects["x"].omega == 1.0  # a record has no omega
        store.log_write(PhysicalVersion("y", "s1.2", 5.0, 5.0, 1))
        store.snapshot(5.0, now=6.0)
        store.close()
        assert pathlib.Path(tmp_path / "snapshot.json").read_bytes()[:1] == b"\0"
        after, history = read_back()
        assert "snapshot: taken at t=6.000" in after and "3 objects" in after
        assert history == [("x", "s1.1", 1.0), ("y", "s1.2", 5.0)]
        assert load_state(str(tmp_path)).objects["x"].value == "s1.1"

    def test_a_disk_crash_at_each_step_of_the_job_keeps_every_acked_write(
        self, tmp_path, monkeypatch
    ):
        """The gate's crash: copy the directory and cut ``wal.log`` at its
        last fsynced length, after the tmp write, after the rename, before
        the log's truncation and after it.  Every copy recovers every write
        the commit before the snapshot fsynced; writes logged while the job
        runs commit after it."""
        root, copies, steps, marks = tmp_path / "store", tmp_path / "copies", [], {}
        fsync, replace, ftruncate = os.fsync, os.replace, os.ftruncate

        def synced(fd):
            fsync(fd)
            marks[fd] = os.fstat(fd).st_size  # what the disk holds of it

        def crash(step):
            steps.append((step, threading.current_thread().name))
            copy = copies / step
            shutil.copytree(root, copy)
            fd = store.wal._fh.fileno()
            with open(copy / "wal.log", "r+b") as fh:
                fh.truncate(min(marks.get(fd, 0), os.fstat(fd).st_size))

        def replaced(src, dst):
            crash("after the tmp write")
            replace(src, dst)
            crash("after the rename")

        def truncated(fd, length):
            crash("before the truncate")
            ftruncate(fd, length)
            crash("after the truncate")

        async def scenario():
            first = self.log(store, SNAPSHOT_EVERY, objects=64)
            monkeypatch.setattr(os, "fsync", synced)
            monkeypatch.setattr(os, "replace", replaced)
            monkeypatch.setattr(os, "ftruncate", truncated)
            await store.commit_soon(600.0, 600.0)  # due: the job queues behind
            compacting = store.wal.compacting
            later = self.log(store, 8, prefix="p", first=1000.0)
            committing = store.commit_soon(1008.0, 1008.0)  # waits for the job
            assert not compacting.done()
            await committing
            assert compacting.done()
            return first, later

        store = self.opened(root)
        first, later = asyncio.run(scenario())
        store.close()
        assert steps == [(step, "wal-fsync") for step in (
            "after the tmp write", "after the rename",
            "before the truncate", "after the truncate")]
        newest = {v.obj: v.value for v in first}
        for step, _ in steps:
            recovered = DurableStore(str(copies / step))
            objects = recovered.open().objects
            recovered.close()
            assert {obj: objects[obj].value for obj in newest} == newest, step
        final = load_state(str(root))
        assert [r["value"] for r in final.wal.records if r["k"] == "w"] == [
            v.value for v in later]
        assert {obj: final.objects[obj].value for obj in newest} == newest

    def test_a_failed_job_leaves_the_log_whole_and_is_retried(
        self, tmp_path, monkeypatch, caplog
    ):
        replace, failures = os.replace, [OSError(errno.ENOSPC, "No space left on device")]

        def failing_once(src, dst):
            if failures:
                raise failures.pop()
            replace(src, dst)

        async def scenario():
            monkeypatch.setattr(os, "replace", failing_once)
            self.log(store, SNAPSHOT_EVERY)
            with caplog.at_level("ERROR", logger="repro.store.recovery"):
                await store.commit_soon(600.0, 600.0)
                await asyncio.wait((store.wal.compacting,))
                await asyncio.sleep(0)  # the store's completion callback
            failed = load_state(str(tmp_path))
            self.log(store, 1, prefix="p", first=700.0)
            await store.commit_soon(701.0, 701.0)  # due again: retried
            await store.wal.compacting
            return failed

        store = self.opened(tmp_path)
        failed = asyncio.run(scenario())
        assert failed.snapshot_state is None
        assert len(failed.wal.records) == 1 + SNAPSHOT_EVERY  # the open record too
        assert [r.getMessage() for r in caplog.records] == ["snapshot failed"]
        assert store.wal.size == 0
        store.close()
        assert len(load_state(str(tmp_path)).objects) == SNAPSHOT_EVERY + 1


class TestWalCorruption:
    """Satellite: truncated-tail and corrupt-CRC records must yield the
    prefix, with the tail quarantined — never silently destroyed."""

    def _write_records(self, path, n=5):
        records = [{"k": "w", "obj": "x", "value": i, "t": float(i)}
                   for i in range(n)]
        with WriteAheadLog(path, fsync="never") as log:
            for record in records:
                log.append(record)
        return records

    def test_truncated_tail_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = self._write_records(path)
        whole = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(whole - 3)  # tear the last record mid-payload
        result = replay(path)
        assert result.records == records[:-1]
        assert result.tail_bytes > 0
        assert "truncated" in result.tail_error

    def test_truncated_header_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = self._write_records(path)
        _append_raw(path, b"\x00\x00")  # half a header
        result = replay(path)
        assert result.records == records
        assert result.tail_error == "truncated record header"

    def test_corrupt_crc_last_record(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = self._write_records(path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))  # flip bits in the payload
        result = replay(path)
        assert result.records == records[:-1]
        assert "CRC" in result.tail_error

    def test_corrupt_record_mid_log_drops_suffix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        good = encode_record({"a": 1})
        # A well-framed record whose CRC lies.
        payload = json.dumps({"a": 2}).encode()
        bad = _HEADER.pack(len(payload), zlib.crc32(payload) ^ 1) + payload
        with open(path, "wb") as fh:
            fh.write(good + bad + encode_record({"a": 3}))
        result = replay(path)
        # Replay cannot trust anything after the first bad record: the
        # prefix is one record, the suffix (bad + good) is the tail.
        assert [r["a"] for r in result.records] == [1]
        assert result.tail_bytes == len(bad) + len(encode_record({"a": 3}))

    def test_insane_length_prefix_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _append_raw(path, _HEADER.pack(1 << 30, 0) + b"xx")
        result = replay(path)
        assert result.records == []
        assert "announced record" in result.tail_error

    def test_quarantine_moves_tail_and_truncates(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = self._write_records(path)
        _append_raw(path, b"garbage-bytes")
        result = replay(path)
        sidecar = quarantine_tail(path, result)
        assert sidecar == f"{path}.quarantine-0"
        with open(sidecar, "rb") as fh:
            assert fh.read() == b"garbage-bytes"
        assert os.path.getsize(path) == result.good_bytes
        assert replay(path).records == records
        # A second quarantine numbers its sidecar, never overwrites.
        _append_raw(path, b"more-garbage")
        sidecar2 = quarantine_tail(path, replay(path))
        assert sidecar2 == f"{path}.quarantine-1"

    def test_quarantine_of_clean_log_is_noop(self, tmp_path):
        path = str(tmp_path / "wal.log")
        self._write_records(path)
        assert quarantine_tail(path, replay(path)) is None

    def test_quarantine_then_open_resumes_on_clean_boundary(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = self._write_records(path)
        _append_raw(path, b"\xde\xad\xbe\xef")
        result = replay(path)
        assert result.records == records
        assert quarantine_tail(path, result) is not None
        log = WriteAheadLog(path)
        log.append({"k": "w", "obj": "y", "value": 1, "t": 9.0})
        log.close()
        replayed = replay(path)
        assert replayed.clean
        assert len(replayed.records) == len(records) + 1


class TestSnapshot:
    def _versions(self):
        return {
            "x": PhysicalVersion("x", "s1.4", 3.0, 4.5, 1),
            "y": PhysicalVersion("y", 17, 2.0, 2.0, 0),
        }

    def _records(self):
        return [encode_record({"k": "w", "obj": v.obj, "t": v.alpha,
                               "value": v.value, "writer": v.writer})
                for v in self._versions().values()]

    def test_roundtrip(self, tmp_path):
        """A snapshot is the log's codec: ``replay`` reads its header and
        its records, and a store recovers from it with omega = alpha."""
        path = str(tmp_path / "snapshot.json")
        with open(path, "wb") as fh:
            fh.write(snapshot_bytes(self._records(), taken_at=5.0, context=4.0, clean=True))
        loaded = load_snapshot(path)
        assert loaded.clean and loaded.encoded[1:] == self._records()
        assert loaded.records == replay(path).records
        assert loaded.records[0] == {"k": "snapshot", "taken_at": 5.0, "context": 4.0,
                                     "clean": True, "objects": 2}
        rebuilt = load_state(str(tmp_path)).objects
        assert rebuilt["x"].value == "s1.4"
        assert rebuilt["x"].alpha == rebuilt["x"].omega == 3.0
        assert rebuilt["y"] == self._versions()["y"]

    def test_both_document_forms_load(self, tmp_path):
        """A snapshot of the earlier JSON format loads, in its one-line and
        its spaced form, as the records a snapshot of the same versions
        holds now, byte for byte: omega is dropped."""
        old, spaced, new = (str(tmp_path / name) for name in ("old", "spaced", "new"))
        write_legacy_snapshot(old, self._versions(), taken_at=5.0, context=4.0)
        document = json.loads(pathlib.Path(old).read_text())
        with open(spaced, "w") as fh:
            json.dump(document, fh, indent=2)
        with open(new, "wb") as fh:
            fh.write(snapshot_bytes(self._records(), taken_at=5.0, context=4.0, clean=False))
        for path in (old, spaced):
            loaded = load_snapshot(path)
            assert loaded.records == load_snapshot(new).records
            assert loaded.encoded == load_snapshot(new).encoded

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path / "absent.json")) is None

    def test_crc_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        write_legacy_snapshot(path, self._versions(), taken_at=1.0, context=1.0)
        document = json.loads(pathlib.Path(path).read_text())
        document["state"]["objects"]["x"]["value"] = "tampered"
        pathlib.Path(path).write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(path)
        data = snapshot_bytes(self._records(), taken_at=1.0, context=1.0, clean=False)
        for torn in (data.replace(b"s1.4", b"s1.5"), data[:-1], data[:len(data) // 2],
                     data[:len(data) - len(self._records()[-1])]):
            pathlib.Path(path).write_bytes(torn)
            with pytest.raises(SnapshotError, match="not a whole snapshot"):
                load_snapshot(path)

    def test_undecodable_snapshot_raises(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"state": {"objects": {}}}', '{"state": []}',
        '{"crc": 0, "state": {"taken_at": 1, "context": 1, "objects": {"x": {}}}}',
    ])
    def test_a_malformed_snapshot_raises(self, tmp_path, text):
        """Refused, not a crash of the recovery that would quarantine it."""
        path = str(tmp_path / "snapshot.json")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_quarantine_snapshot(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        with open(path, "w") as fh:
            fh.write("junk")
        sidecar = quarantine_snapshot(path)
        assert sidecar == f"{path}.corrupt-0"
        assert not os.path.exists(path)
        assert quarantine_snapshot(path) is None  # nothing left to move

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        store.log_write(self._versions()["x"])
        store.snapshot(1.0, now=1.0)
        store.close()
        assert os.path.exists(tmp_path / "snapshot.json")
        assert not os.path.exists(tmp_path / "snapshot.json.tmp")


class TestAtomicWrites:
    """The shared helper and its registry-save call site (the
    ``--metrics-snapshot`` torn-file fix)."""

    def test_atomic_write_bytes(self, tmp_path):
        path = str(tmp_path / "file.txt")
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert pathlib.Path(path).read_bytes() == b"two"
        assert not os.path.exists(path + ".tmp")

    def test_unserializable_payload_leaves_existing_file_intact(self, tmp_path):
        path = str(tmp_path / "file.json")
        atomic_write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(pathlib.Path(path).read_text()) == {"ok": 1}  # old content survives

    def test_registry_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        registry = Registry()
        registry.counter("repro_test_total", "t").inc(3)
        registry.save(path)
        snapshot = load_metrics_snapshot(path)
        names = [fam["name"] for fam in snapshot["metrics"]]
        assert "repro_test_total" in names
        assert not os.path.exists(path + ".tmp")
        # Overwrite goes through the same tmp+rename path.
        registry.counter("repro_test_total").inc()
        registry.save(path)
        assert load_metrics_snapshot(path)["metrics"]
