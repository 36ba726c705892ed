"""Integration tests: the Section 5 protocols induce their criteria.

These close the paper's main loop: run the lifetime protocol variant,
record the execution, and hand it to the corresponding checker.
"""

import math

import pytest

from repro.analysis import staleness_report, timedness_report
from repro.checkers import check_cc, check_sc
from repro.protocol import Cluster, PushPolicy, StalenessAction
from repro.workloads import (
    ticker_workload,
    uniform_workload,
    virtual_env_workload,
)

#: Upper bound on one protocol round trip in these configs (UniformLatency
#: 0.01-0.05 plus scheduling): used as the slack when checking delta.
LATENCY_SLACK = 0.15


class TestSCInduction:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sc_variant_traces_are_sc(self, seed):
        cluster = Cluster(n_clients=4, n_servers=2, variant="sc", seed=seed)
        cluster.spawn(uniform_workload(["A", "B", "C"], n_ops=25, write_fraction=0.3))
        cluster.run()
        assert check_sc(cluster.history())

    def test_sc_with_invalidate_action(self):
        cluster = Cluster(
            n_clients=3, n_servers=1, variant="sc", seed=9,
            staleness_action=StalenessAction.INVALIDATE,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=25, write_fraction=0.3))
        cluster.run()
        assert check_sc(cluster.history())

    def test_sc_with_push_propagation(self):
        cluster = Cluster(
            n_clients=3, n_servers=1, variant="sc", seed=9,
            push_policy=PushPolicy.PUSH,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=25, write_fraction=0.3))
        cluster.run()
        assert check_sc(cluster.history())


class TestTSCInduction:
    @pytest.mark.parametrize("delta", [0.2, 0.5, 1.0])
    def test_tsc_traces_are_sc_and_timed(self, delta):
        cluster = Cluster(
            n_clients=4, n_servers=1, variant="tsc", delta=delta, seed=7
        )
        cluster.spawn(uniform_workload(["A", "B", "C"], n_ops=30, write_fraction=0.2))
        cluster.run()
        history = cluster.history()
        assert check_sc(history)
        timed = timedness_report(history, delta + LATENCY_SLACK)
        assert timed["late_reads"] == 0

    def test_tsc_bounds_staleness(self):
        delta = 0.3
        cluster = Cluster(
            n_clients=5, n_servers=1, variant="tsc", delta=delta, seed=13
        )
        cluster.spawn(virtual_env_workload(n_rounds=20, move_interval=0.1))
        cluster.run()
        stale = staleness_report(cluster.history())
        assert stale.maximum <= delta + LATENCY_SLACK

    def test_sc_does_not_bound_staleness_on_same_workload(self):
        cluster = Cluster(n_clients=5, n_servers=1, variant="sc", seed=13)
        cluster.spawn(virtual_env_workload(n_rounds=20, move_interval=0.1))
        cluster.run()
        stale = staleness_report(cluster.history())
        assert stale.maximum > 0.3 + LATENCY_SLACK  # visibly worse than TSC


class TestCCInduction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cc_variant_traces_are_cc(self, seed):
        cluster = Cluster(n_clients=4, n_servers=2, variant="cc", seed=seed)
        cluster.spawn(uniform_workload(["A", "B", "C"], n_ops=25, write_fraction=0.3))
        cluster.run()
        assert check_cc(cluster.history())

    def test_ticker_workload_is_cc(self):
        cluster = Cluster(n_clients=5, n_servers=1, variant="cc", seed=4)
        cluster.spawn(ticker_workload(n_rounds=10))
        cluster.run()
        assert check_cc(cluster.history())


class TestTCCInduction:
    @pytest.mark.parametrize("delta", [0.3, 1.0])
    def test_tcc_traces_are_cc_and_timed(self, delta):
        cluster = Cluster(
            n_clients=4, n_servers=2, variant="tcc", delta=delta, seed=5
        )
        # Collaborative editing: 8 paragraphs, one write per four reads.
        paragraphs = [f"para{i}" for i in range(8)]
        cluster.spawn(uniform_workload(
            paragraphs, n_ops=75, mean_think_time=0.06, write_fraction=0.2))
        cluster.run()
        history = cluster.history()
        assert check_cc(history)
        timed = timedness_report(history, delta + LATENCY_SLACK)
        assert timed["late_reads"] == 0

    def test_tcc_bounds_staleness_cc_does_not(self):
        results = {}
        for variant, delta in (("cc", math.inf), ("tcc", 0.3)):
            cluster = Cluster(
                n_clients=5, n_servers=1, variant=variant, delta=delta, seed=3
            )
            cluster.spawn(ticker_workload(n_rounds=15))
            cluster.run()
            results[variant] = staleness_report(cluster.history()).maximum
        assert results["tcc"] <= 0.3 + LATENCY_SLACK
        assert results["cc"] > results["tcc"]


class TestClockSkew:
    def test_tsc_with_epsilon_clocks_stays_sc(self):
        cluster = Cluster(
            n_clients=4, n_servers=1, variant="tsc", delta=0.5, seed=21,
            epsilon=0.05,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=25, write_fraction=0.25))
        cluster.run()
        history = cluster.history()
        assert check_sc(history)
        # Definition 2: the delta bound weakens by the clock precision.
        timed = timedness_report(history, 0.5 + LATENCY_SLACK + 0.05)
        assert timed["late_reads"] == 0

    def test_epsilon_requires_valid_budget(self):
        cluster = Cluster(
            n_clients=2, n_servers=1, variant="sc", seed=1, epsilon=0.1
        )
        for client in cluster.clients:
            assert client.clock.epsilon_bound <= 0.1 + 1e-9


class TestClusterValidation:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            Cluster(n_clients=1, variant="nope")
        with pytest.raises(ValueError):
            Cluster(n_clients=1, variant="tsc")  # needs finite delta
        with pytest.raises(ValueError):
            Cluster(n_clients=1, variant="sc", delta=1.0)  # sc takes none
        with pytest.raises(ValueError):
            Cluster(n_clients=0)

    def test_stats_aggregation(self):
        cluster = Cluster(n_clients=3, n_servers=1, variant="sc", seed=2)
        cluster.spawn(uniform_workload(["A"], n_ops=10, write_fraction=0.2))
        cluster.run()
        total = cluster.aggregate_stats()
        assert total.reads == sum(c.stats.reads for c in cluster.clients)
        assert cluster.message_stats.messages_sent > 0

    def test_traces_carry_execution_intervals(self):
        from repro.checkers import check_interval_linearizability

        cluster = Cluster(n_clients=3, n_servers=1, variant="sc", seed=2)
        cluster.spawn(uniform_workload(["A", "B"], n_ops=15, write_fraction=0.3))
        cluster.run()
        history = cluster.history()
        for op in history:
            assert op.start is not None and op.end is not None
            assert op.start <= op.time <= op.end
        # Interval linearizability is decidable on the trace (whatever the
        # verdict — SC caches legitimately serve stale values).
        check_interval_linearizability(history, budget=500_000)

    def test_determinism(self):
        def run():
            cluster = Cluster(n_clients=3, n_servers=2, variant="tsc",
                              delta=0.4, seed=99)
            cluster.spawn(uniform_workload(["A", "B"], n_ops=20, write_fraction=0.3))
            cluster.run()
            return [
                (op.site, op.obj, op.value, op.time) for op in cluster.history()
            ]

        assert run() == run()
