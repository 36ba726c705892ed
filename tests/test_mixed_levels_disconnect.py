"""Multiple consistency levels in one system, and disconnections.

Two more Section 4 threads made executable:

* Kordale & Ahamad [23]: different clients run different consistency
  levels against the same servers — strict clients pay per-read traffic,
  lax clients coast on their caches, and the global ordering criterion
  still holds;
* "[CC] is well suited to mobility applications and has the ability to
  handle disconnections smoothly [3, 4]" — a partitioned CC client keeps
  serving its cache; a TSC client's freshness rule correctly refuses.
"""

import math

import pytest

from repro.analysis.metrics import read_staleness
from repro.checkers import check_cc, check_sc
from repro.protocol import Cluster
from repro.workloads import uniform_workload


class TestMixedConsistencyLevels:
    def test_per_client_delta_validation(self):
        with pytest.raises(ValueError):
            Cluster(n_clients=3, variant="tsc", per_client_delta=[0.1, 0.2])

    def test_strict_client_fresh_lax_client_cheap(self):
        cluster = Cluster(
            n_clients=3, n_servers=1, variant="tsc",
            per_client_delta=[0.1, 2.0, math.inf], seed=8,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=30, write_fraction=0.15))
        cluster.run()
        strict, lax, untimed = cluster.clients
        # Freshness effort decreases with the bound.
        assert strict.stats.validations > lax.stats.validations
        assert lax.stats.validations >= untimed.stats.validations
        assert strict.stats.hit_ratio <= lax.stats.hit_ratio
        # The shared ordering criterion is global.
        assert check_sc(cluster.history())

    def test_per_client_staleness_tracks_each_delta(self):
        cluster = Cluster(
            n_clients=2, n_servers=1, variant="tsc",
            per_client_delta=[0.15, 3.0], seed=4,
        )
        cluster.spawn(uniform_workload(["A", "B"], n_ops=40, write_fraction=0.2))
        cluster.run()
        history = cluster.history()
        strict_id = cluster.clients[0].node_id
        strict_stale = max(
            (read_staleness(history, r) for r in history.reads
             if r.site == strict_id),
            default=0.0,
        )
        assert strict_stale <= 0.15 + 0.15  # delta + round trip

    def test_causal_variant_supports_mixed_deltas(self):
        cluster = Cluster(
            n_clients=2, n_servers=1, variant="tcc",
            per_client_delta=[0.2, math.inf], seed=5,
        )
        cluster.spawn(uniform_workload(["A"], n_ops=20, write_fraction=0.3))
        cluster.run()
        assert check_cc(cluster.history())


class TestDisconnection:
    def _run_with_partition(self, variant, delta, partition_window=(1.0, 3.0)):
        cluster = Cluster(
            n_clients=2, n_servers=1, variant=variant, delta=delta, seed=7,
            retry_timeout=0.25,
        )
        roaming = cluster.clients[1]
        reads_during_partition = []

        def roaming_workload(cl, client, rng):
            # Warm the cache, then read while disconnected.
            yield client.read("A")
            yield cl.sim.timeout(partition_window[0] - cl.sim.now)
            cl.network.partition(client.node_id)
            for _ in range(4):
                yield cl.sim.timeout(0.2)
                event = client.read("A")
                if event.triggered:
                    reads_during_partition.append(event.value)
            yield cl.sim.timeout(
                max(0.0, partition_window[1] - cl.sim.now)
            )
            cl.network.heal(client.node_id)
            yield client.read("A")

        def home_workload(cl, client, rng):
            for n in range(6):
                yield cl.sim.timeout(0.4)
                yield client.write("A", f"h{n}")

        self_sim = cluster.sim
        cluster.sim.process(home_workload(cluster, cluster.clients[0], None))
        cluster.sim.process(roaming_workload(cluster, roaming, None))
        cluster.run(until=8.0)
        _ = self_sim
        return cluster, reads_during_partition

    def test_cc_serves_cache_while_disconnected(self):
        cluster, served = self._run_with_partition("cc", math.inf)
        # All four reads during the partition completed from cache.
        assert len(served) == 4
        assert check_cc(cluster.history(validate=True))

    def test_tsc_refuses_stale_reads_while_disconnected(self):
        cluster, served = self._run_with_partition("tsc", 0.3)
        # The freshness rule cannot be met without the server: at most the
        # first read (within delta of the warm-up) completes immediately.
        assert len(served) <= 1

    def test_partition_helpers(self):
        cluster = Cluster(n_clients=1, n_servers=1, variant="sc", seed=0)
        node = cluster.clients[0].node_id
        server = cluster.servers[0].node_id
        stats = cluster.network.stats
        cluster.network.partition(node)
        cluster.network.send(node, server, "ping")
        assert stats.messages_dropped == 1
        cluster.network.heal(node)
        cluster.network.send(node, server, "ping")
        assert stats.messages_dropped == 1
