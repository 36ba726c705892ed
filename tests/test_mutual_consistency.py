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

from repro.engine.versions import PhysicalVersion
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

    def test_pairwise_overlap_matches_global_test(self):
        """max(alpha) <= min(omega) iff pairwise overlap — sanity on the
        physical version class itself."""
        a = PhysicalVersion("X", 1, alpha=1.0, omega=4.0)
        b = PhysicalVersion("Y", 2, alpha=3.0, omega=6.0)
        c = PhysicalVersion("Z", 3, alpha=5.0, omega=7.0)
        trio = [a, b, c]
        global_ok = max(v.alpha for v in trio) <= min(v.omega for v in trio)
        pairwise_ok = all(
            x.mutually_consistent(y) for x in trio for y in trio if x is not y
        )
        assert not global_ok  # a and c do not overlap
        assert not pairwise_ok
