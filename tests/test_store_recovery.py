"""Crash recovery: state, timescale, and timed-consistency metadata.

Three layers of confidence:

* :class:`TestDurableStore` — the recovery rules in isolation (context
  restore, old-marking at Δ, timescale monotonicity, corrupt-snapshot
  fallback, compaction);
* :class:`TestServerRecovery` — a real TCP server wired to a store:
  write, drop the server without ceremony, restart from the directory,
  and the revived server must serve the old values, keep time moving
  forward, and re-prove old-marked versions on first touch;
* :class:`TestCrashRecoveryEndToEnd` — the satellite's full scenario:
  SIGKILL a serve *subprocess* between WAL append and acknowledgement,
  restart it from ``--store-dir``, and prove with the offline checker
  that the merged client+recovered history still satisfies TSC.
"""

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checkers import check_tsc, history_from_wal
from repro.core.history import History
from repro.engine.versions import PhysicalVersion
from repro.net.client import NetCacheClient, NetError
from repro.net.server import NetObjectServer
from repro.ring.ring import Ring, RingBuilder
from repro.sim.trace import TraceRecorder
from repro.store import DurableStore, load_state
from repro.store.recovery import SNAPSHOT_EVERY

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def recover(root, now_wall=None, **options):
    """What a store over ``root`` recovers on opening; the store is
    closed again before this returns."""
    store = DurableStore(str(root), **options)
    try:
        return store.open(now_wall=now_wall)
    finally:
        store.close()


class TestDurableStore:
    def _seeded(self, root, values=(("x", "s1.1", 1.0), ("y", "s1.2", 2.0))):
        store = DurableStore(str(root), fsync="always")
        store.open(now_wall=1000.0)
        for obj, value, t in values:
            store.log_write(PhysicalVersion(obj, value, t, t, 1))
        store.close()

    def test_open_decodes_the_log_once(self, tmp_path, monkeypatch):
        """Recovery reads and CRC-checks ``wal.log`` in one pass: the
        quarantine and the appending log work from ``load_state``'s
        replay."""
        from repro.store import recovery, wal

        self._seeded(tmp_path)
        replays = []
        real = wal.replay

        def counted(path):
            replays.append(path)
            return real(path)

        monkeypatch.setattr(wal, "replay", counted)
        monkeypatch.setattr(recovery, "replay", counted)
        store = DurableStore(str(tmp_path), fsync="always")
        recovered = store.open(now_wall=1001.0)
        store.close()
        assert sorted(recovered.objects) == ["x", "y"]
        assert len(replays) == 1

    def test_snapshot_age_starts_at_the_first_snapshot(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="always")
        store.open(now_wall=1000.0)
        assert store.snapshot_age == math.inf
        store.snapshot({"x": PhysicalVersion("x", "s1.0", 1.0, 1.0, 1)}, 1.0, now=2.0)
        assert 0.0 <= store.snapshot_age < 60.0
        store.close()
        store = DurableStore(str(tmp_path), fsync="always")
        store.open(now_wall=1001.0)
        assert store.snapshot_age < 60.0  # the snapshot on disk counts
        store.close()

    def test_group_bracket_defers_to_one_commit(self, tmp_path):
        """Inside ``group()`` a logged write is only appended and the
        caller owes the log's commit; outside it ``log_write`` is durable
        on return, as it always was."""
        store = DurableStore(str(tmp_path), fsync="always")
        store.open(now_wall=1000.0)
        wal = store.wal
        before = wal.fsyncs
        store.log_write(PhysicalVersion("x", "s1.0", 1.0, 1.0, 1))
        assert wal.fsyncs == before + 1
        committed = wal.size
        for i in range(1, 4):
            with store.group():
                store.log_write(PhysicalVersion("x", f"s1.{i}", 1.0 + i, 1.0 + i, 1))
        with store.group():
            store.log_writes([
                PhysicalVersion("y", f"s1.{i}", 1.0 + i, 1.0 + i, 1) for i in (4, 5)
            ])
        assert wal.fsyncs == before + 1 and wal.size == committed  # in memory
        wal.commit()
        assert wal.fsyncs == before + 2 and wal.size > committed
        store.log_write(PhysicalVersion("z", "s1.6", 7.0, 7.0, 1))
        assert wal.fsyncs == before + 3
        store.close(sync=False)
        recovered = recover(tmp_path, 1001.0).objects
        assert {obj: v.value for obj, v in recovered.items()} == {
            "x": "s1.3", "y": "s1.5", "z": "s1.6",
        }

    def test_a_store_from_before_the_ring_was_kept_keeps_one_epoch(
        self, tmp_path
    ):
        """A ``meta.json`` that holds only ``ring_epoch`` recovers no
        ring, and the first ring saved replaces that key."""
        recover(tmp_path, 1000.0)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, ring_epoch=5)))
        store = DurableStore(str(tmp_path))
        try:
            assert store.open(now_wall=1001.0).ring is None
            ring = RingBuilder(part_power=2, replicas=1)
            ring.add_device(0)
            assert store.save_ring(ring.rebalance()[0].as_dict())
        finally:
            store.close()
        meta = json.loads(meta_path.read_text())
        assert "ring_epoch" not in meta and meta["ring"]["epoch"] == 1
        assert recover(tmp_path, 1002.0).ring == meta["ring"]

    def test_fresh_store_is_empty(self, tmp_path):
        store = DurableStore(str(tmp_path))
        recovered = store.open(now_wall=1000.0)
        store.close()
        assert recovered.empty
        assert recovered.objects == {}
        assert recovered.resume_time == 0.0

    def test_replay_restores_latest_write_per_object(self, tmp_path):
        self._seeded(tmp_path, values=(
            ("x", "s1.1", 1.0), ("x", "s1.2", 1.5), ("y", "s1.3", 2.0),
        ))
        recovered = recover(tmp_path, 1000.5)
        assert recovered.objects["x"].value == "s1.2"
        assert recovered.objects["x"].alpha == 1.5
        assert recovered.objects["y"].value == "s1.3"
        assert recovered.replayed_records >= 3

    def test_resume_time_is_monotone_across_restarts(self, tmp_path):
        # Created at wall 1000 -> timescale zero; reopened at wall 1007
        # -> the store's clock must resume at >= 7 even though the
        # process restarted (and >= every persisted instant even if the
        # wall clock stepped backwards).
        self._seeded(tmp_path)
        recovered = recover(tmp_path, 1007.0)
        assert recovered.resume_time == pytest.approx(7.0)
        backwards = recover(tmp_path, 900.0)
        assert backwards.resume_time >= recovered.resume_time - 1e-9

    def test_context_restore_rule(self, tmp_path):
        # Context := max(persisted, t_restart - delta): with delta=2 and
        # a restart at t=10, the revived node may not claim a context
        # older than 8 no matter what it persisted.
        self._seeded(tmp_path)
        # An infinite delta restores the persisted context untouched.
        plain = recover(tmp_path, 1010.0)
        assert plain.context == pytest.approx(2.0)
        recovered = recover(tmp_path, 1010.0, recovery_delta=2.0)
        assert recovered.resume_time == pytest.approx(10.0)
        assert recovered.context == pytest.approx(8.0)
        # Context is monotone and durable: the raised value was logged
        # by the recovery event, so a later open cannot regress it.
        assert recover(tmp_path, 1010.0).context == pytest.approx(8.0)

    def test_old_marking_at_delta(self, tmp_path):
        # x was last known current at omega=1, y at omega=9.5; a restart
        # at t=10 with delta=2 can vouch only for y.
        store = DurableStore(str(tmp_path), fsync="always")
        store.open(now_wall=1000.0)
        store.log_write(PhysicalVersion("x", "s1.1", 1.0, 1.0, 1))
        store.log_write(PhysicalVersion("y", "s1.2", 9.5, 9.5, 1))
        store.close()
        recovered = recover(tmp_path, 1010.0, recovery_delta=2.0)
        assert recovered.old_objects == {"x"}

    def test_corrupt_snapshot_quarantined_and_wal_replayed(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        xs = [PhysicalVersion("x", f"s1.{t}", float(t), float(t), 1)
              for t in range(1, SNAPSHOT_EVERY + 1)]
        for x in xs[:-1]:
            store.log_write(x)
        # One append short of SNAPSHOT_EVERY: no snapshot yet.
        assert store.maybe_snapshot({"x": xs[-2]}, xs[-2].alpha, xs[-2].alpha) is False
        store.log_write(xs[-1])
        # SNAPSHOT_EVERY appends: the snapshot is written and the WAL
        # truncated behind it.
        assert store.maybe_snapshot({"x": xs[-1]}, xs[-1].alpha, xs[-1].alpha) is True
        t = xs[-1].alpha + 1.0
        store.log_write(PhysicalVersion("y", "s1.y", t, t, 1))
        store.close()
        snapshot_path = str(tmp_path / "snapshot.json")
        with open(snapshot_path, "w") as fh:
            fh.write("{torn")
        recovered = recover(tmp_path, 1000.0 + t)
        # The corrupt snapshot is moved aside, and recovery proceeds
        # from what the log still holds (the suffix after compaction).
        assert recovered.snapshot_quarantined is not None
        assert "y" in recovered.objects
        assert os.path.exists(snapshot_path + ".corrupt-0")

    def test_a_large_store_snapshots_after_one_append_per_object(self, tmp_path):
        """The log never outgrows the snapshot that replaces it: a store
        that holds 2 000 objects snapshots after 2 000 further appends,
        not after ``SNAPSHOT_EVERY``."""
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        objects = {f"o{i}": PhysicalVersion(f"o{i}", 0, 1.0, 1.0, 1)
                   for i in range(2000)}
        store.snapshot(objects, 1.0, now=1.0)
        for appended in range(1, 2001):
            t = 1.0 + appended
            version = PhysicalVersion("o0", f"s1.{appended}", t, t, 1)
            store.log_write(version)
            objects["o0"] = version
            if appended in (SNAPSHOT_EVERY, 1999):
                assert store.maybe_snapshot(objects, t, t) is False
        assert store.maybe_snapshot(objects, t, t) is True
        assert load_state(str(tmp_path)).wal.records == []  # truncated behind it
        store.close()

    def test_clean_close_needs_no_replay(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="always")
        store.open(now_wall=1000.0)
        store.log_write(PhysicalVersion("x", "s1.1", 1.0, 1.0, 1))
        store.close_clean(
            {"x": PhysicalVersion("x", "s1.1", 1.0, 1.5, 1)}, 1.5, 1.5
        )
        state = load_state(str(tmp_path))
        assert state.clean
        recovered = recover(tmp_path, 1002.0)
        assert recovered.clean_start
        assert recovered.replayed_records == 0
        assert recovered.objects["x"].value == "s1.1"

    def test_torn_tail_quarantined_on_open(self, tmp_path):
        self._seeded(tmp_path)
        with open(tmp_path / "wal.log", "ab") as fh:
            fh.write(b"\xff\xfe half a record")
        recovered = recover(tmp_path, 1001.0)
        assert recovered.wal_quarantined is not None
        assert recovered.quarantined_bytes > 0
        assert recovered.objects["x"].value == "s1.1"

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            DurableStore(str(tmp_path), recovery_delta=-1.0)
        store = DurableStore(str(tmp_path))
        with pytest.raises(RuntimeError):
            store.log_write(PhysicalVersion("x", 1, 0.0, 0.0, 0))


class TestHistoryFromWal:
    def test_wal_only(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        store.log_write(PhysicalVersion("x", "s0.1", 1.0, 1.0, 0))
        store.log_write(PhysicalVersion("y", "s1.2", 2.0, 2.0, 1))
        store.close()
        history = history_from_wal(str(tmp_path))
        ops = sorted(history.operations, key=lambda op: op.time)
        assert [(op.site, op.obj, op.value, op.time) for op in ops] == [
            (0, "x", "s0.1", 1.0), (1, "y", "s1.2", 2.0),
        ]
        assert all(op.is_write for op in ops)

    def test_snapshot_writes_survive_compaction(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        recovered = store.open(now_wall=1000.0)
        store.log_write(PhysicalVersion("x", "s0.1", 1.0, 1.0, 0))
        store.snapshot(
            {"x": PhysicalVersion("x", "s0.1", 1.0, 1.0, 0)}, 1.0, now=1.0
        )
        store.log_write(PhysicalVersion("x", "s0.2", 2.0, 2.0, 0))
        store.close()
        history = history_from_wal(str(tmp_path))
        values = sorted(op.value for op in history.operations)
        assert values == ["s0.1", "s0.2"]
        assert recovered.empty

    def test_initial_values_in_snapshot_are_not_writes(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        # The implicit initial version (writer -1 at alpha 0) a server
        # materializes on first read is state, not history.
        store.snapshot(
            {"x": PhysicalVersion("x", 0, 0.0, 3.0, -1)}, 3.0, now=3.0
        )
        store.close()
        assert len(history_from_wal(str(tmp_path)).operations) == 0

    def test_bare_wal_file_accepted(self, tmp_path):
        store = DurableStore(str(tmp_path), fsync="never")
        store.open(now_wall=1000.0)
        store.log_write(PhysicalVersion("x", "s0.1", 1.0, 1.0, 0))
        store.close()
        history = history_from_wal(str(tmp_path / "wal.log"))
        assert [op.value for op in history.operations] == ["s0.1"]


@pytest.mark.net
class TestServerRecovery:
    def test_restart_preserves_values_and_timescale(self, tmp_path):
        root = str(tmp_path / "store")

        async def first_life():
            server = NetObjectServer(
                propagation="none",
                store=DurableStore(root, fsync="always"),
            )
            await server.start()
            async with NetCacheClient(1, server.host, server.port) as client:
                await client.write("x", "s1.1")
                await client.write("y", "s1.2")
                await client.write("x", "s1.3")
            alpha = server.engine.store["x"].alpha
            # No shutdown(): the process just stops, as in a crash (the
            # WAL was fsynced per append, so everything acked survives).
            await server.close()
            return alpha

        async def second_life(old_alpha):
            server = NetObjectServer(
                propagation="none", store=DurableStore(root, fsync="always"),
            )
            await server.start()
            assert server.recovered is not None
            assert not server.recovered.clean_start
            async with NetCacheClient(2, server.host, server.port) as client:
                assert await client.read("x") == "s1.3"
                assert await client.read("y") == "s1.2"
                await client.write("x", "s2.1")
                assert await client.read("x") == "s2.1"
            new_alpha = server.engine.store["x"].alpha
            await server.close()
            return new_alpha

        old_alpha = asyncio.run(first_life())
        new_alpha = asyncio.run(second_life(old_alpha))
        # The resumed timescale must keep increasing across the restart,
        # or the new write would have lost latest-write-wins silently.
        assert new_alpha > old_alpha

    def test_restart_resumes_the_acknowledged_ring(self, tmp_path):
        """A crashed clustered member comes back with the ring it last
        acknowledged, not just that ring's epoch, and serves it on
        ring-fetch; the older ring it starts its agent with is refused."""
        root = str(tmp_path / "store")
        builder = RingBuilder(part_power=3, replicas=2)
        for dev in (0, 1):
            builder.add_device(dev)
        ring1, _ = builder.rebalance()
        builder.add_device(2)
        ring2, _ = builder.rebalance()
        assert (ring1.epoch, ring2.epoch) == (1, 2)

        def durable_server():
            return NetObjectServer(
                propagation="none", store=DurableStore(root, fsync="always"))

        async def first_life():
            server = await durable_server().start()
            assert server.set_ring(ring1.as_dict())
            assert server.set_ring(ring2.as_dict())
            await server.abort()

        async def second_life():
            server = await durable_server().start()
            try:
                assert server.engine.epoch == 2
                assert not server.set_ring(ring1.as_dict())
                async with NetCacheClient(1, server.host, server.port) as client:
                    return await client.link.fetch_ring()
            finally:
                await server.close()

        asyncio.run(first_life())
        epoch, ring = asyncio.run(second_life())
        assert epoch == 2
        assert Ring.from_dict(ring).as_dict() == ring2.as_dict()

    def test_recovery_delta_marks_old_and_first_touch_revalidates(
        self, tmp_path
    ):
        root = str(tmp_path / "store")

        async def first_life():
            server = NetObjectServer(
                propagation="none", store=DurableStore(root, fsync="always"),
            )
            await server.start()
            async with NetCacheClient(1, server.host, server.port) as client:
                await client.write("x", "s1.1")
            await server.close()

        async def second_life():
            # delta=0: nothing the store persisted can prove itself
            # current at the restart instant, so everything is old.
            server = NetObjectServer(
                propagation="none",
                store=DurableStore(root, recovery_delta=0.0),
            )
            await server.start()
            assert server.engine.recovered_old == {"x"}
            async with NetCacheClient(2, server.host, server.port) as client:
                assert await client.read("x") == "s1.1"
            assert server.engine.recovered_old == set()
            assert server.engine.revalidations == 1
            await server.close()

        asyncio.run(first_life())
        time.sleep(0.02)
        asyncio.run(second_life())

    def test_graceful_shutdown_leaves_clean_store(self, tmp_path):
        root = str(tmp_path / "store")

        async def scenario():
            server = NetObjectServer(
                propagation="none", store=DurableStore(root, fsync="never"),
            )
            await server.start()
            async with NetCacheClient(1, server.host, server.port) as client:
                await client.write("x", "s1.1")
            await server.shutdown(grace=1.0)

        asyncio.run(scenario())
        state = load_state(root)
        # The drain wrote a final clean snapshot and truncated the WAL —
        # even under fsync="never" — so the next start replays nothing.
        assert state.clean
        assert state.objects["x"].value == "s1.1"
        recovered = recover(root)
        assert recovered.clean_start
        assert recovered.replayed_records == 0

    def test_ring_cluster_with_stores_and_a_join(self, tmp_path):
        from repro.net.workloads import DEFAULT_OBJECTS, ring_cluster

        report = asyncio.run(ring_cluster(
            n_servers=2, replicas=2, n_clients=2, rounds=8,
            delta=math.inf, add_device_midway=True, cluster=True,
            store_root=str(tmp_path), fsync="interval",
        ))
        assert report.tsc.satisfied
        assert report.ring.device_ids() == [0, 1, 2]
        # The joiner's copies arrived as writes, logged before their
        # acks: its WAL holds every object its ring slots name.
        placed = {obj for obj in DEFAULT_OBJECTS
                  if 2 in report.ring.replicas_for(obj)}
        assert placed
        assert placed <= set(load_state(str(tmp_path / "dev2")).objects)
        for dev in range(3):
            assert os.path.isdir(tmp_path / f"dev{dev}")


@pytest.mark.net(timeout=90)
class TestCrashRecoveryEndToEnd:
    """SIGKILL a serve subprocess between WAL append and ACK; restart it
    from the store; the merged client+recovered history must satisfy TSC
    at the configured delta (the issue's acceptance criterion)."""

    def _spawn_serve(self, store_dir, extra_args=(), crash_after=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_STORE_CRASH_AFTER", None)
        if crash_after is not None:
            env["REPRO_STORE_CRASH_AFTER"] = str(crash_after)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--propagation", "none",
             "--store-dir", store_dir, "--fsync", "always",
             *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        port = None
        for line in proc.stdout:
            if line.startswith("serving on "):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
        assert port is not None, "serve subprocess never reported its port"
        return proc, port

    def test_sigkill_inside_a_burst_logs_the_write_and_sends_no_ack(self, tmp_path):
        """Five writes in one segment, the third append SIGKILLs: it is
        on disk with the two before it, and nothing was acknowledged —
        the burst's acks were held for a commit that never came."""
        from repro.net.framing import HELLO, dial, encode_frame

        store_dir = str(tmp_path / "store")
        proc, port = self._spawn_serve(store_dir, crash_after=3)
        try:
            async def burst():
                conn = await dial("127.0.0.1", port)
                await conn.send({"kind": HELLO, "client_id": 1})
                await conn.recv()
                conn.transport.write(b"".join(
                    encode_frame({"kind": "write", "obj": f"o{i}", "value": f"s1.{i}",
                                  "req": i})
                    for i in range(5)
                ))
                replies = []
                try:
                    while (frame := await asyncio.wait_for(conn.recv(), 5.0)):
                        replies.append(frame)
                except ConnectionError:
                    pass
                await conn.close()
                return replies

            assert asyncio.run(burst()) == []
            assert proc.wait(timeout=10) == -signal.SIGKILL
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        logged = [op.value for op in history_from_wal(store_dir).operations]
        assert logged == ["s1.0", "s1.1", "s1.2"]

    def test_sigkill_restart_verify_and_tsc(self, tmp_path):
        from repro.cli import main as cli_main

        store_dir = str(tmp_path / "store")
        recorder = TraceRecorder()

        # -- first life: three writes; the third SIGKILLs the server
        # after the WAL append, before the acknowledgement.
        proc, port = self._spawn_serve(store_dir, crash_after=3)
        try:
            async def first_client():
                async with NetCacheClient(
                    1, "127.0.0.1", port, recorder=recorder,
                ) as client:
                    await client.write("x", "s1.1")
                    await client.write("y", "s1.2")
                    with pytest.raises((NetError, ConnectionError, OSError)):
                        await client.write("x", "s1.3")

            asyncio.run(first_client())
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        # -- the store must verify as recoverable despite the crash.
        assert cli_main(["store", "verify", store_dir]) == 0

        # Capture the WAL history *now*: the restart below will compact
        # the log into a snapshot, which (by design) keeps only the
        # latest version per object — the overwritten s1.3 write would
        # no longer be reconstructable afterwards.
        crash_history = history_from_wal(store_dir)
        assert "s1.3" in [op.value for op in crash_history.operations]

        # -- second life: restart from the store with a finite recovery
        # delta; the un-acked write must have survived.
        proc, port = self._spawn_serve(
            store_dir, extra_args=("--recovery-delta", "5.0"),
        )
        try:
            async def second_client():
                async with NetCacheClient(
                    2, "127.0.0.1", port, recorder=recorder,
                ) as client:
                    assert await client.read("x") == "s1.3"
                    assert await client.read("y") == "s1.2"
                    await client.write("x", "s2.1")
                    assert await client.read("x") == "s2.1"

            asyncio.run(second_client())
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0  # graceful drain
            proc.stdout.close()

        # -- after the graceful exit the store is clean and still verifies.
        assert cli_main(["store", "verify", store_dir, "--strict"]) == 0
        assert load_state(store_dir).clean

        # -- the acceptance bar: merge the clients' trace with the
        # recovered WAL history (server-side ground truth, including the
        # write whose ack the crash ate) and check TSC offline.
        wal_history = history_from_wal(store_dir)
        seen = set()
        operations = []
        for op in (
            list(recorder.history(validate=False).operations)
            + list(crash_history.operations)
            + list(wal_history.operations)
        ):
            key = (op.kind, op.site, op.obj, op.value, op.time)
            if op.is_write and key in seen:
                continue
            seen.add(key)
            operations.append(op)
        merged = History(operations, initial_value=0)
        values = [op.value for op in merged.operations if op.is_write]
        assert sorted(values) == ["s1.1", "s1.2", "s1.3", "s2.1"]
        result = check_tsc(merged, delta=5.0)
        assert result.satisfied, result.violation
