"""The Section 5.1 cache invariant: usable entries are mutually consistent.

"The values of X_i and Y_i (cached in C_i) are mutually consistent if
their lifetimes overlap and, thus, they coexisted at some instant.  C_i
is consistent if the maximum start time of any object value in C_i is
less than or equal to the minimum ending time."

The protocol maintains this by construction; these tests sample the
invariant continuously during runs of every variant.
"""

import math

import pytest

from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.engine.cache import CacheEngine, CausalCacheEngine
from repro.engine.versions import CacheEntry, LogicalVersion, PhysicalVersion
from repro.protocol import Cluster
from repro.workloads import uniform_workload


def run_sampling(variant, delta, seed, samples=40):
    cluster = Cluster(
        n_clients=4, n_servers=2, variant=variant, delta=delta, seed=seed
    )
    cluster.spawn(uniform_workload(["A", "B", "C"], n_ops=25, write_fraction=0.3))
    verdicts = []

    def sampler():
        for _ in range(samples):
            yield cluster.sim.timeout(0.1)
            for client in cluster.clients:
                verdicts.append(client.snapshot_mutually_consistent())

    cluster.sim.process(sampler())
    cluster.run()
    return verdicts


class TestMutualConsistency:
    @pytest.mark.parametrize(
        "variant,delta",
        [("sc", math.inf), ("tsc", 0.3), ("cc", math.inf), ("tcc", 0.3)],
    )
    def test_invariant_holds_throughout_runs(self, variant, delta):
        verdicts = run_sampling(variant, delta, seed=9)
        assert verdicts and all(verdicts)

    def test_invariant_holds_under_loss(self):
        cluster = Cluster(
            n_clients=3, n_servers=1, variant="sc", seed=2,
            drop_probability=0.15, retry_timeout=0.2,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=20, write_fraction=0.3))
        verdicts = []

        def sampler():
            for _ in range(30):
                yield cluster.sim.timeout(0.15)
                verdicts.extend(
                    c.snapshot_mutually_consistent() for c in cluster.clients
                )

        cluster.sim.process(sampler())
        cluster.run()
        assert verdicts and all(verdicts)

    def test_usable_snapshot_contents(self):
        cluster = Cluster(n_clients=2, n_servers=1, variant="sc", seed=1)
        client = cluster.clients[0]

        def proc():
            yield client.read("A")
            yield client.read("B")

        cluster.sim.process(proc())
        cluster.run()
        snapshot = client.usable_snapshot()
        assert set(snapshot) == {"A", "B"}
        assert all(isinstance(v, PhysicalVersion) for v in snapshot.values())

    def test_empty_cache_is_consistent(self):
        cluster = Cluster(n_clients=1, n_servers=1, variant="sc", seed=0)
        assert cluster.clients[0].snapshot_mutually_consistent()


class TestOverlapRule:
    """The invariant's own test, on entries placed in the cache directly
    (bypassing the rules that keep it), so a violation can be staged."""

    @staticmethod
    def physical(**lifetimes):
        engine = CacheEngine()
        for obj, (alpha, omega) in lifetimes.items():
            engine.cache[obj] = CacheEntry(PhysicalVersion(obj, obj, alpha, omega))
        return engine

    def test_pairwise_overlap_is_consistent(self):
        assert self.physical(X=(1.0, 4.0), Y=(3.0, 6.0)).snapshot_mutually_consistent()

    def test_disjoint_lifetimes_are_flagged(self):
        engine = self.physical(X=(1.0, 4.0), Y=(3.0, 6.0), Z=(5.0, 7.0))
        assert not engine.snapshot_mutually_consistent()

    def test_rule1_demotes_the_entry_a_newer_fetch_leaves_behind(self):
        engine = CacheEngine()
        for obj, alpha, omega in (("X", 1.0, 4.0), ("Y", 3.0, 6.0), ("Z", 5.0, 7.0)):
            engine.install_fetched(PhysicalVersion(obj, obj, alpha, omega), alpha)
        assert engine.cache["X"].old
        assert set(engine.usable_snapshot()) == {"Y", "Z"}
        assert engine.snapshot_mutually_consistent()

    @staticmethod
    def causal(**lifetimes):
        engine = CausalCacheEngine(
            site_id=0, vclock=VectorClock(0, 2),
            zero_timestamp=VectorTimestamp((0, 0)),
        )
        for obj, entries in lifetimes.items():
            ts = VectorTimestamp(entries)
            engine.cache[obj] = CacheEntry(LogicalVersion(obj, obj, ts, ts))
        return engine

    def test_causal_lifetimes_may_be_concurrent(self):
        assert self.causal(X=(1, 0), Y=(0, 1)).snapshot_mutually_consistent()

    def test_causal_lifetime_ending_before_another_starts_is_flagged(self):
        assert not self.causal(X=(1, 0), Y=(2, 1)).snapshot_mutually_consistent()
