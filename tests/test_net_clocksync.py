"""Clock rebasing and the NTP-style offset/epsilon estimator."""

import math

import pytest

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

    def test_aio_session_uses_shared_helper(self):
        # The satellite refactor: sim.aio and repro.net agree on rebasing.
        from repro.sim.aio import AioSession

        session = AioSession(n_clients=1)
        assert isinstance(session._clock, RebasedClock)


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

    def test_negative_rtt_rejected(self):
        est = ClockSyncEstimator()
        with pytest.raises(ValueError):
            est.add_sample(0.0, 0.0, 1.0, 0.5)  # server work exceeds rtt
        with pytest.raises(ValueError):
            est.add_sample(1.0, 0.0, 0.0, 0.5)  # reply before request


class TestSyncedClock:
    def test_now_applies_estimated_offset(self):
        ticks = iter([0.0, 1.0, 2.0])
        clock = SyncedClock(local=lambda: next(ticks))
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
        import asyncio

        from repro.net.framing import HELLO_ACK, SYNC, SYNC_ACK

        self.accepts += 1
        failing = self.accepts <= self.fail_first
        try:
            await conn.recv()  # HELLO
            if failing and self.fail_point == "hello":
                return
            await conn.send({"kind": HELLO_ACK, "version": 1})
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

    def _connect(self, fail_first, fail_point="sync", sync_retries=3):
        import asyncio

        from repro.net.client import NetCacheClient

        async def _run():
            server = await _FlakyServer(fail_first, fail_point).start()
            try:
                client = NetCacheClient(
                    0, "127.0.0.1", server.port, sync_retries=sync_retries
                )
                await client.connect()
                synced = client.clock.estimator.synchronized
                await client.close()
                return server.accepts, synced
            finally:
                await server.close()

        return asyncio.run(_run())

    def test_recovers_from_flaky_sync_rounds(self):
        accepts, synced = self._connect(fail_first=2)
        assert accepts == 3  # two torn connections, then success
        assert synced

    def test_recovers_from_close_before_hello_ack(self):
        accepts, synced = self._connect(fail_first=1, fail_point="hello")
        assert accepts == 2
        assert synced

    def test_clean_neterror_after_retries_exhausted(self):
        import asyncio

        from repro.net.client import NetCacheClient, NetError

        async def _run():
            server = await _FlakyServer(fail_first=99).start()
            try:
                client = NetCacheClient(
                    0, "127.0.0.1", server.port, sync_retries=1
                )
                with pytest.raises(NetError, match="after 2 attempts"):
                    await client.connect()
                assert client.conn is None  # no half-open connection left
                return server.accepts
            finally:
                await server.close()

        assert asyncio.run(_run()) == 2

    def test_zero_retries_fails_on_first_tear(self):
        import asyncio

        from repro.net.client import NetCacheClient, NetError

        async def _run():
            server = await _FlakyServer(fail_first=1).start()
            try:
                client = NetCacheClient(
                    0, "127.0.0.1", server.port, sync_retries=0
                )
                with pytest.raises(NetError, match="after 1 attempts"):
                    await client.connect()
            finally:
                await server.close()

        asyncio.run(_run())
