"""Clock rebasing and the NTP-style offset/epsilon estimator."""

import ast
import asyncio
import math
import pathlib

import pytest

import repro
from repro.clocks import RebasedClock
from repro.net.clocksync import ClockSyncEstimator, SyncedClock


class TestRebasedClock:
    def test_first_reading_is_zero(self):
        ticks = iter([100.0, 100.5, 103.25])
        clock = RebasedClock(source=lambda: next(ticks))
        assert clock.now() == 0.0
        assert clock.now() == 0.5
        assert clock() == 3.25

    def test_pin_fixes_t0_early(self):
        ticks = iter([100.0, 107.0])
        clock = RebasedClock(source=lambda: next(ticks))
        clock.pin()
        assert clock.now() == 7.0

    def test_offset_injects_constant_skew(self):
        ticks = iter([50.0, 51.0])
        clock = RebasedClock(source=lambda: next(ticks), offset=0.2)
        assert clock.now() == pytest.approx(0.2)
        assert clock.now() == pytest.approx(1.2)

    def test_default_source_is_the_running_loops_clock(self):
        """The one fallback every live module reads "now" through: the
        running loop's ``time`` — whichever loop that is — and
        ``time.monotonic`` only when there is none."""
        import time

        from repro.clocks.rebase import loop_clock, loop_time
        from repro.sim import vtime

        async def readings():
            clock = RebasedClock()
            clock.pin()
            await asyncio.sleep(3600)
            loop = asyncio.get_running_loop()
            return clock.now(), loop_clock() == loop.time, loop_time() - loop.time()

        elapsed, same_source, gap = vtime.run(readings())
        assert 3600 <= elapsed < 3600.001
        assert same_source and -1e-3 < gap < 0
        assert loop_clock() is time.monotonic


def exchange(true_offset, up, down, t0=10.0, server_work=0.001):
    """Synthesize one NTP exchange: asymmetric path delays allowed.

    ``true_offset`` is server clock minus client clock; ``up``/``down``
    are the one-way delays.
    """
    t1 = t0 + up + true_offset
    t2 = t1 + server_work
    t3 = (t2 - true_offset) + down
    return t0, t1, t2, t3


class TestClockSyncEstimator:
    def test_unsynchronized_defaults(self):
        est = ClockSyncEstimator()
        assert not est.synchronized
        assert est.offset == 0.0
        assert est.error_bound == math.inf
        assert est.epsilon_bound == math.inf

    def test_symmetric_exchange_recovers_offset_exactly(self):
        est = ClockSyncEstimator()
        est.add_sample(*exchange(true_offset=2.5, up=0.01, down=0.01))
        assert est.offset == pytest.approx(2.5)
        assert est.error_bound == pytest.approx(0.01)
        assert est.epsilon_bound == pytest.approx(0.02)

    def test_asymmetry_error_stays_within_bound(self):
        est = ClockSyncEstimator()
        est.add_sample(*exchange(true_offset=-1.0, up=0.03, down=0.001))
        assert abs(est.offset - (-1.0)) <= est.error_bound + 1e-12
        assert est.offset != pytest.approx(-1.0)  # asymmetry does bias it

    def test_clock_filter_keeps_min_rtt_sample(self):
        est = ClockSyncEstimator()
        est.add_sample(*exchange(true_offset=1.0, up=0.05, down=0.002))
        noisy_offset = est.offset
        est.add_sample(*exchange(true_offset=1.0, up=0.001, down=0.001))
        est.add_sample(*exchange(true_offset=1.0, up=0.04, down=0.01))
        assert est.offset == pytest.approx(1.0, abs=1e-9)
        assert abs(est.offset - 1.0) < abs(noisy_offset - 1.0)
        assert est.error_bound == pytest.approx(0.001)
        assert len(est.samples) == 3

    def test_the_offset_is_the_best_samples_after_every_sample(self):
        """A plain attribute, read by every synchronized-clock reading:
        0.0 while unsynced, then the minimum-RTT sample's offset."""
        est = ClockSyncEstimator()
        assert est.offset == 0.0 and "offset" in vars(est)
        for true_offset, up, down in [(1.0, 0.05, 0.002), (1.2, 0.001, 0.001),
                                      (0.7, 0.04, 0.01), (1.1, 0.0005, 0.0004)]:
            est.add_sample(*exchange(true_offset=true_offset, up=up, down=down))
            assert est.offset == est.best.offset
        assert est.offset == pytest.approx(1.1 + (0.0005 - 0.0004) / 2)

    def test_negative_rtt_rejected(self):
        est = ClockSyncEstimator()
        with pytest.raises(ValueError):
            est.add_sample(0.0, 0.0, 1.0, 0.5)  # server work exceeds rtt
        with pytest.raises(ValueError):
            est.add_sample(1.0, 0.0, 0.0, 0.5)  # reply before request


class TestSyncedClock:
    def test_now_applies_estimated_offset(self):
        ticks = iter([0.0, 1.0, 2.0])
        clock = SyncedClock(local=RebasedClock(source=lambda: next(ticks)))
        assert clock.now() == 0.0  # unsynced: offset 0
        clock.estimator.add_sample(*exchange(true_offset=3.0, up=0.01, down=0.01))
        assert clock.now() == pytest.approx(4.0)
        assert clock() == pytest.approx(5.0)
        assert clock.epsilon_bound == pytest.approx(0.02)

    def test_skew_flows_into_local_reading(self):
        ticks = iter([10.0, 10.0])
        clock = SyncedClock(skew=0.25)
        clock._local = RebasedClock(source=lambda: next(ticks), offset=0.25)
        assert clock.local() == pytest.approx(0.25)
        assert clock.skew == 0.25


class _FlakyServer:
    """A handshake-speaking server that tears down its first N accepts.

    ``fail_point`` selects where the teardown happens: ``"sync"`` closes
    mid-clock-sync (the satellite's motivating failure), ``"hello"``
    before the HELLO_ACK.
    """

    def __init__(self, fail_first: int, fail_point: str = "sync") -> None:
        self.fail_first = fail_first
        self.fail_point = fail_point
        self.accepts = 0
        self._server = None

    async def start(self):
        from repro.net.framing import listen

        self._server = await listen(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, conn):
        from repro.net.framing import HELLO_ACK, PROTOCOL_VERSION, SYNC, SYNC_ACK

        self.accepts += 1
        failing = self.accepts <= self.fail_first
        try:
            await conn.recv()  # HELLO
            if failing and self.fail_point == "hello":
                return
            await conn.send({"kind": HELLO_ACK, "protocol": PROTOCOL_VERSION})
            while True:
                frame = await conn.recv()
                if frame is None:
                    return
                if frame.get("kind") == SYNC:
                    if failing:
                        return  # close mid-sync: the motivating failure
                    now = asyncio.get_event_loop().time()
                    await conn.send({
                        "kind": SYNC_ACK,
                        "t0": frame["t0"], "t1": now, "t2": now,
                    })
        finally:
            await conn.close()


@pytest.mark.net
class TestHandshakeRetry:
    """Satellite: one bad sync round must not hard-fail the client."""

    def _connect(self, fail_first, fail_point="sync"):
        from repro.net.client import NetCacheClient
        from repro.sim import vtime

        async def _run():
            server = await _FlakyServer(fail_first, fail_point).start()
            try:
                client = NetCacheClient(0, "127.0.0.1", server.port)
                await client.connect()
                synced = client.clock.estimator.synchronized
                await client.close()
                return server.accepts, synced
            finally:
                await server.close()

        return vtime.run(_run())

    def test_recovers_from_flaky_sync_rounds(self):
        accepts, synced = self._connect(fail_first=2)
        assert accepts == 3  # two torn connections, then success
        assert synced

    def test_recovers_from_close_before_hello_ack(self):
        accepts, synced = self._connect(fail_first=1, fail_point="hello")
        assert accepts == 2
        assert synced

    def test_clean_neterror_after_retries_exhausted(self):
        from repro.net.client import SYNC_RETRIES, NetCacheClient, NetError
        from repro.sim import vtime

        async def _run():
            server = await _FlakyServer(fail_first=99).start()
            try:
                client = NetCacheClient(0, "127.0.0.1", server.port)
                with pytest.raises(
                    NetError, match=f"after {SYNC_RETRIES + 1} attempts"
                ):
                    await client.connect()
                assert client.conn is None  # no half-open connection left
                return server.accepts
            finally:
                await server.close()

        assert vtime.run(_run()) == SYNC_RETRIES + 1


@pytest.mark.net
class TestAckStampedOutsideTheCallersInterval:
    """``alpha`` is read on the server's clock, ``[start, end]`` on the
    site's synchronized one, and Definition 2 lets the two disagree by
    epsilon.  A one-sided 4 ms delay on the sync exchange skews the
    estimate by 2 ms — inside the estimator's own claimed bound — while a
    loopback write takes far less, so the stamp falls outside the
    interval.  The acknowledged, installed write used to raise at the
    caller and vanish from the trace; it is recorded with the interval
    widened to hold its stamp."""

    @staticmethod
    async def _write_once(server_faults=None, ahead=0.0, shape=None):
        """One write and a read of it through a connected site; returns
        the ack's stamp and the write as the trace holds it.  ``ahead``
        replaces the site's estimate with one exchange whose request leg
        took that long (no reply delay): its clock then runs ``ahead / 2``
        ahead of the server's, inside the ``ahead / 2`` error it claims."""
        from repro.net.local import LocalStack
        from repro.sim.trace import TraceRecorder

        recorder = TraceRecorder()
        async with LocalStack(fault_factory=server_faults, **(shape or {})) as stack:
            client = await stack.connect(0, delta=1.0, recorder=recorder)
            if ahead:
                client.clock.estimator = ClockSyncEstimator()
                local = client.clock.local()
                client.clock.estimator.add_sample(*exchange(
                    stack.servers[0].clock() - local, up=ahead, down=0.0,
                    t0=local, server_work=0.0,
                ))
            alpha = await client.write("x", "v1")
            assert await client.read("x") == "v1"
            held = {s.engine.store["x"].value for s in stack.servers.values()}
        assert held == {"v1"}
        write, read = recorder.history().operations  # validates: no unmatched read
        assert (write.value, write.time, read.value) == ("v1", alpha, "v1")
        assert write.start <= alpha <= write.end
        return alpha, write

    @staticmethod
    def _delaying(kind):
        from repro.net.faults import FaultConfig, FaultInjector

        return FaultInjector(FaultConfig(delay=0.004), kinds={kind})

    def test_stamp_after_the_interval_is_recorded_not_raised(self):
        # sync-ack delayed: the site's clock runs 2 ms behind the server's.
        alpha, write = asyncio.run(self._write_once(
            server_faults=lambda: self._delaying("sync-ack")))
        assert write.end == alpha

    def test_stamp_before_the_interval_is_recorded_not_raised(self):
        # The client->server leg delayed instead: the site's clock runs
        # ahead.  A connected link takes no sample after its handshake,
        # so the delayed exchange is fed to a fresh estimator directly.
        alpha, write = asyncio.run(self._write_once(ahead=0.004))
        assert write.start == alpha

    def test_router_records_the_widened_interval_too(self):
        alpha, write = asyncio.run(self._write_once(
            server_faults=lambda: self._delaying("sync-ack"),
            shape={"servers": 2, "replicas": 2}))
        assert write.end == alpha


def sample_takers():
    """Every ``Class.method`` (or function) under ``src/repro`` that calls
    an ``add_sample``."""
    takers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "add_sample"):
                takers.add(".".join(scope))
            visit(child, inner)

    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return takers


class TestOffsetsAreSetOnce:
    """A ring site rebases a device's stamps by ``offset_ref - offset_d``
    (docs/THEORY.md, Result 3), which holds one timeline only while no
    offset moves: an estimator takes samples in the connect handshake
    and nowhere else."""

    def test_only_the_handshake_feeds_an_estimator(self):
        assert sample_takers() == {"NetCacheClient._sync_clock"}
