"""Integration tests: the real TCP cluster, verified by the checkers.

Everything here opens localhost sockets, so the tests are marked ``net``
(hard SIGALRM timeout, see conftest).  The workloads run in virtual time
(:mod:`repro.sim.vtime`): sleeps cost nothing and a verdict does not
depend on how busy the host is.  The one real-loop smoke is
``test_healthy_cluster_passes_tsc`` (``run_push_staleness_demo`` is the
``asyncio.run`` wrapper ``repro net-demo`` calls).
"""

import asyncio
import math

import pytest

from repro.checkers import check_sc
from repro.core.timed import read_occurs_on_time, w_r_set
from repro.engine import messages
from repro.net.client import NetCacheClient, RequestTimeout
from repro.net.workloads import (
    push_staleness_cluster,
    random_net_cluster,
    run_push_staleness_demo,
)
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.server import NetObjectServer
from repro.sim import vtime
from repro.sim.trace import TraceRecorder

pytestmark = pytest.mark.net

DELTA = 0.3


class TestBasicOperation:
    def test_read_your_writes_and_cold_read(self):
        async def scenario():
            async with NetObjectServer(propagation="none") as server:
                recorder = TraceRecorder()
                async with NetCacheClient(
                    0, server.host, server.port, recorder=recorder
                ) as client:
                    assert await client.read("x") == 0  # initial value
                    await client.write("x", "s0.1")
                    assert await client.read("x") == "s0.1"
                    assert client.stats.fresh_hits == 1
                return recorder.history()

        history = vtime.run(scenario())
        assert len(history) == 3
        assert check_sc(history)

    def test_validation_after_delta_expiry(self):
        async def scenario():
            async with NetObjectServer(propagation="none") as server:
                async with NetCacheClient(
                    0, server.host, server.port, delta=0.05, mode="pull"
                ) as client:
                    await client.read("x")
                    await asyncio.sleep(0.15)  # age the entry past delta
                    await client.read("x")  # rule 3 forces revalidation
                    return client.stats

        stats = scenario_stats = vtime.run(scenario())
        assert scenario_stats.fetches == 1
        assert stats.validations + stats.revalidated >= 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NetCacheClient(0, "127.0.0.1", 1, delta=-1)
        with pytest.raises(ValueError):
            NetCacheClient(0, "127.0.0.1", 1, mode="gossip")
        with pytest.raises(ValueError):
            NetObjectServer(propagation="carrier-pigeon")


class TestThreeClientCluster:
    """The acceptance scenario: 1 server, 3 clients, skewed clocks."""

    def test_healthy_cluster_passes_tsc(self):
        report = run_push_staleness_demo(
            n_clients=3, delta=DELTA, push_delay=0.0, skew=0.1,
        )
        assert report.sc.satisfied
        assert report.tsc.satisfied, report.tsc.violation
        assert report.late_reads == []
        # Clock sync really ran: residual epsilon far below the skew.
        assert report.epsilon < 0.05
        assert report.pushes_sent >= 2  # both readers got the update

    def test_delay_beyond_delta_is_flagged_by_the_checkers(self):
        report = vtime.run(push_staleness_cluster(
            n_clients=3, delta=DELTA, push_delay=3 * DELTA, skew=0.1,
        ))
        # The ordering criterion survives; the *timed* one is violated.
        assert report.sc.satisfied
        assert not report.tsc.satisfied
        assert "late" in report.tsc.violation
        # The late-read list flags the same phenomenon, per read.
        late = report.late_reads
        assert late
        h, eps = report.history, report.epsilon
        missed = {w.label() for r in late for w in w_r_set(h, r, DELTA, eps)}
        assert missed == {"w0(x)s0.2"}  # the delayed second write
        # Every late read needed more than delta; none by more than the
        # injected delay plus slack.
        for r in late:
            assert read_occurs_on_time(h, r, 3 * DELTA + 0.5, eps)

    def test_clock_sync_recovers_injected_skew(self):
        report = vtime.run(push_staleness_cluster(
            n_clients=3, delta=DELTA, push_delay=0.0, skew=0.2,
        ))
        from repro.net.local import default_skews

        for client_id, skew in enumerate(default_skews(3, 0.2)):
            offset = report.client_offsets[client_id]
            # The estimator's offset cancels the injected skew.
            assert offset == pytest.approx(-skew, abs=0.05)

    def test_pull_mode_holds_delta_regardless_of_push_faults(self):
        # Same cluster shape, but rule 3 instead of trust-the-push.
        async def scenario():
            report = await random_net_cluster(
                n_clients=3, delta=0.2, rounds=12, think=0.01,
                write_fraction=0.3, skew=0.1, seed=3,
            )
            return report

        report = vtime.run(scenario())
        assert report.sc.satisfied
        assert report.tsc.satisfied, report.tsc.violation

    def test_every_delta_holds_and_loosening_it_costs_nothing(self):
        # The Section 6 trade-off over real sockets: each trace is TSC
        # at the delta it ran with, and loosening delta never costs
        # cache hits and never adds validation traffic.  A client comes
        # back to an object about every 60 ms, so at delta = 50 ms most
        # re-reads have expired.
        totals = {}
        for delta in (0.05, 0.5, math.inf):
            report = vtime.run(random_net_cluster(
                n_clients=3, delta=delta, rounds=18, objects=("x", "y"),
                write_fraction=0.25, think=0.03, skew=0.05, seed=23,
            ))
            assert report.sc.satisfied, delta
            assert report.tsc.satisfied, (delta, report.tsc.violation)
            totals[delta] = report.totals()
        assert totals[math.inf].hit_ratio >= totals[0.05].hit_ratio
        assert (totals[math.inf].messages_per_read
                <= totals[0.05].messages_per_read)


class TestFaultInjection:
    def test_drops_are_repaired_by_retransmission(self):
        faults = FaultConfig(drop_probability=0.4, seed=5)

        async def scenario():
            report = await random_net_cluster(
                n_clients=2, delta=math.inf, rounds=10, think=0.002,
                write_fraction=0.3, skew=0.0, seed=11,
                client_faults=faults,
            )
            return report

        report = vtime.run(scenario())
        totals = report.totals()
        # The workload completed despite 40% request loss...
        assert totals.reads + totals.writes == 20
        # ...because requests were retransmitted,
        assert totals.retries > 0
        # and the recovered trace is still sequentially consistent.
        assert report.sc.satisfied

    def test_duplicated_requests_are_harmless(self):
        faults = FaultConfig(duplicate_probability=0.8, seed=2)

        async def scenario():
            return await random_net_cluster(
                n_clients=2, delta=0.25, rounds=10, think=0.002,
                write_fraction=0.3, skew=0.05, seed=13,
                client_faults=faults,
            )

        report = vtime.run(scenario())
        assert report.sc.satisfied
        assert report.tsc.satisfied, report.tsc.violation

    def test_partition_times_out_then_heals(self):
        async def scenario():
            async with NetObjectServer(propagation="none") as server:
                injector = FaultInjector(FaultConfig(), kinds={messages.FETCH})
                client = NetCacheClient(
                    0, server.host, server.port, faults=injector,
                )
                async with client:
                    injector.partition()
                    with pytest.raises(RequestTimeout):
                        await client.read("x")
                    injector.heal()
                    assert await client.read("x") == 0
                    assert client.stats.retries >= 1
                    assert injector.stats.dropped >= 1

        vtime.run(scenario())

    def test_partition_drops_kinds_outside_filter(self):
        """Regression: a kind-filtered injector must still drop everything
        while partitioned — a partition severs the whole link, not just
        the kinds it otherwise injects faults into."""
        injector = FaultInjector(FaultConfig(), kinds={messages.FETCH})
        assert injector.plan(messages.WRITE) == [0.0]  # not filtered, no fault
        injector.partition()
        assert injector.plan(messages.FETCH) == []
        assert injector.plan(messages.WRITE) == []  # used to leak through
        assert injector.stats.dropped == 2
        assert injector.stats.planned == 2
        injector.heal()
        assert injector.plan(messages.WRITE) == [0.0]
        assert injector.plan(messages.FETCH) == [0.0]


class TestPropagationPolicies:
    def test_invalidation_policy_marks_entries_old(self):
        async def scenario():
            async with NetObjectServer(propagation="invalidate") as server:
                recorder = TraceRecorder()
                writer = NetCacheClient(0, server.host, server.port,
                                        recorder=recorder, mode="push")
                reader = NetCacheClient(1, server.host, server.port,
                                        recorder=recorder, mode="push")
                async with writer, reader:
                    await writer.write("x", "s0.1")
                    assert await reader.read("x") == "s0.1"
                    await writer.write("x", "s0.2")
                    await asyncio.sleep(0.1)  # let the invalidation land
                    # The reader's entry was demoted, not dropped: the
                    # next read revalidates and fetches the new version.
                    assert await reader.read("x") == "s0.2"
                    assert reader.stats.push_invalidations >= 1
                    assert reader.stats.marked_old >= 1
                return recorder.history()

        history = vtime.run(scenario())
        assert check_sc(history)
