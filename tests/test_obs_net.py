"""Observability over the live TCP stack: the instrumented ring soak
with a live /metrics scrape, online/offline verdict agreement, every
scrape-time family pinned to the count it reads, the metric catalogue
checked against what a soak exports, and the server's graceful drain —
in virtual time (:mod:`repro.sim.vtime`): the mid-run scrape lands at
0.2 s of the soak's own clock, not the host's.  The one real-loop smoke
is ``test_single_server_families``."""

import asyncio
import itertools
import pathlib
import re
import tempfile

import pytest

from repro.net.client import NetCacheClient, NetError
from repro.net.local import LocalStack
from repro.net.workloads import ring_cluster
from repro.net.server import NetObjectServer
from repro.obs.expo import MetricsServer, scrape
from repro.obs.metrics import Registry
from repro.sim import vtime

pytestmark = pytest.mark.net

CATALOGUE = pathlib.Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md"


def failover_soak(root):
    """The store-backed, clustered kill-primary soak in virtual time with
    one registry: ``(registry, stack, wals)``.  ``wals`` is each device's
    log, taken at the kill: the victim's store drops its log as it
    closes, and a closed log keeps its counts."""
    registry = Registry()
    seen = {}
    kill_primary = LocalStack.kill_primary

    async def spy(stack, *args, **kwargs):
        seen["stack"] = stack
        seen["wals"] = {d: s.durable.wal for d, s in stack.servers.items()}
        return await kill_primary(stack, *args, **kwargs)

    LocalStack.kill_primary = spy
    try:
        vtime.run(ring_cluster(
            n_servers=3, replicas=2, n_clients=2, rounds=20, seed=13,
            cluster=True, kill_primary_midway=True, probe_period=0.1,
            suspect_timeout=0.3, store_root=str(root), fsync="always",
            registry=registry,
        ))
    finally:
        LocalStack.kill_primary = kill_primary
    return registry, seen["stack"], seen["wals"]


def exported_families(registry):
    """The family names a registry exports: ``(collected, direct)`` —
    those only collectors produce (counts read at scrape time), and the
    registry's own metrics."""
    direct = set(registry.names())
    collected = {f["name"] for f in registry.collect()} - direct
    return collected, direct


def family_counts():
    """How many families the kill-primary soak exports, by source."""
    with tempfile.TemporaryDirectory() as root:
        collected, direct = exported_families(failover_soak(root)[0])
    return {"collector": len(collected), "direct": len(direct)}


def catalogue_families(text):
    """Every family named in the catalogue table, ``{a,b}`` expanded."""
    names = set()
    for row in re.findall(r"^\| (`repro_.*?) \|", text, re.M):
        for name in re.findall(r"`(repro_[^`]*)`", row):
            parts = re.split(r"\{([^}]*)\}", name)
            choices = [
                part.split(",") if i % 2 else [part]
                for i, part in enumerate(parts)
            ]
            names.update("".join(p) for p in itertools.product(*choices))
    return names


@pytest.fixture(scope="module")
def soak(tmp_path_factory):
    return failover_soak(tmp_path_factory.mktemp("stores"))


class TestOneSource:
    """Each family the store and the cluster export at scrape time reads
    the count its component keeps, so no second copy can drift."""

    def test_every_scrape_time_family_is_the_count_it_reads(self, soak):
        registry, stack, wals = soak
        families = {f["name"]: f for f in registry.collect()}

        def value(name, **labels):
            (sample,) = [
                s for s in families[name]["samples"] if s["labels"] == labels
            ]
            return sample["value"] if "value" in sample else sample["count"]

        for dev, server in stack.servers.items():
            store, wal = f"dev{dev}", wals[dev]
            recovered = server.durable.recovered
            assert wal.records_appended > 0
            assert value("repro_store_wal_records_total", store=store) == wal.records_appended
            assert value("repro_store_wal_bytes_total", store=store) == wal.bytes_appended
            assert value("repro_store_fsync_seconds", store=store) == wal.fsyncs
            assert value("repro_store_revalidations_total", store=store) == (
                server.engine.revalidations)
            assert value("repro_store_recoveries_total", store=store) == 1
            assert value("repro_store_recovery_seconds_total", store=store) == (
                recovered.recovery_seconds)
            assert value("repro_store_replayed_records_total", store=store) == (
                recovered.replayed_records)
            assert value("repro_store_quarantined_bytes_total", store=store) == (
                recovered.quarantined_bytes)
            assert value("repro_store_old_marked_total", store=store) == (
                len(recovered.old_objects))
            agent = stack.agents[dev]
            assert value("repro_cluster_refutations_total", member=str(dev)) == (
                agent.refutations)
            assert value("repro_cluster_failovers_total", member=str(dev)) == (
                agent.failovers)
        assert sum(a.failovers for a in stack.agents.values()) >= 1

    def test_the_catalogue_lists_exactly_what_the_soak_exports(self, soak):
        collected, direct = exported_families(soak[0])
        assert catalogue_families(CATALOGUE.read_text()) == collected | direct


class TestInstrumentedSoak:
    def _run(self, **kwargs):
        async def inner():
            registry = Registry()
            metrics = await MetricsServer(registry).start()
            mid = {}

            async def scrape_midway():
                await asyncio.sleep(0.2)
                mid["status"], mid["body"] = await scrape(
                    metrics.host, metrics.port
                )

            try:
                report, _ = await asyncio.gather(
                    ring_cluster(registry=registry, **kwargs),
                    scrape_midway(),
                )
                status, body = await scrape(metrics.host, metrics.port)
            finally:
                await metrics.close()
            return report, mid, (status, body)

        return vtime.run(inner())

    def test_soak_exposes_metrics_and_agrees_with_checker(self):
        report, mid, (status, body) = self._run(
            n_servers=3, replicas=2, n_clients=2, rounds=15,
            delta=0.5, seed=7,
        )
        # The soak itself stays checker-verified.
        assert report.tsc.satisfied, report.tsc.violation
        assert report.off_ring_reads == 0

        # The mid-run scrape saw a live endpoint with the timed
        # instruments and the per-layer counters.
        assert mid["status"] == 200
        assert "repro_visibility_lag_seconds_bucket" in mid["body"]
        assert "repro_ontime_reads_total" in mid["body"]
        assert "repro_net_requests_total" in mid["body"]

        # The final scrape carries the lag histogram and a ratio.
        assert status == 200
        assert 'repro_ontime_reads_total{verdict="on_time"}' in body
        assert "repro_ontime_ratio" in body

        # Online judgement agrees with the offline Definition-2 checker:
        # nothing was evicted from the window (small soak), so the late
        # count must match the offline verdicts exactly.
        assert report.ontime is not None
        assert report.ontime["reads_unjudged"] == 0
        assert report.ontime["reads_late"] == len(report.late_reads)
        judged = (report.ontime["reads_on_time"]
                  + report.ontime["reads_late"])
        assert judged == len(report.history.reads)
        if report.late_reads:
            expected = 1.0 - len(report.late_reads) / judged
        else:
            expected = 1.0
        assert report.ontime["ontime_ratio"] == pytest.approx(expected)

    def test_report_ontime_absent_without_registry(self):
        async def inner():
            return await ring_cluster(
                n_servers=2, replicas=2, n_clients=1, rounds=6,
                delta=0.5, seed=3,
            )

        report = vtime.run(inner())
        assert report.ontime is None


class TestServerTelemetry:
    def test_single_server_families(self):
        async def inner():
            registry = Registry()
            server = NetObjectServer(
                registry=registry, metric_labels={"role": "server"},
            )
            await server.start()
            client = NetCacheClient(
                0, server.host, server.port,
                registry=registry,
            )
            await client.connect()
            try:
                await client.write("x", 1)
                assert await client.read("x") == 1
            finally:
                await client.close()
                await server.close()
            return registry.snapshot()

        snapshot = asyncio.run(inner())
        fams = {f["name"]: f for f in snapshot["metrics"]}
        kinds = {
            s["labels"]["kind"]: s["value"]
            for s in fams["repro_net_requests_total"]["samples"]
        }
        assert kinds.get("write") == 1
        assert kinds.get("sync", 0) >= 1
        rtt = fams["repro_net_request_rtt_seconds"]["samples"]
        assert sum(s["count"] for s in rtt) >= 1
        frames = {
            s["labels"]["direction"]: s["value"]
            for s in fams["repro_net_frames_total"]["samples"]
        }
        assert frames["sent"] > 0 and frames["received"] > 0
        octets = {
            s["labels"]["direction"]: s["value"]
            for s in fams["repro_net_bytes_total"]["samples"]
        }
        assert octets["sent"] > 0 and octets["received"] > 0
        clients = {
            s["labels"].get("site"): s["value"]
            for s in fams["repro_client_ops_total"]["samples"]
            if s["labels"]["kind"] == "read"
        }
        assert clients.get("0") == 1


class TestPushLagWhereObservable:
    """Only a subscriber is sent pushes, so only a standalone push-mode
    client binds ``repro_net_push_lag_seconds``; a ring site's links
    pull and bind none."""

    def test_a_ring_site_binds_no_push_lag_and_a_push_client_does(self):
        ring_registry, push_registry = Registry(), Registry()

        async def inner():
            async with LocalStack(
                servers=2, replicas=2, registry=ring_registry,
            ) as stack:
                site = await stack.connect(1, delta=0.5)
                await site.write("x", "s1.1")
                assert await site.read("x") == "s1.1"
            async with LocalStack(propagation="push") as stack:
                pusher = await stack.connect(2, delta=0.5)
                watcher = await stack.connect(
                    3, delta=0.5, mode="push", registry=push_registry,
                )
                await pusher.write("x", "s2.1")
                for _ in range(50):
                    if watcher.stats.pushes:
                        break
                    await asyncio.sleep(0.01)

        vtime.run(inner())
        assert "repro_net_push_lag_seconds" not in ring_registry.names()
        (lag,) = [f for f in push_registry.collect()
                  if f["name"] == "repro_net_push_lag_seconds"]
        assert [s["count"] for s in lag["samples"]] == [1]


class TestGracefulDrain:
    def test_new_connections_refused_after_drain(self):
        async def inner():
            server = NetObjectServer()
            await server.start()
            host, port = server.host, server.port
            await server.shutdown(grace=0.1)
            with pytest.raises((ConnectionError, NetError, OSError)):
                client = NetCacheClient(0, host, port)
                await client.connect()

        vtime.run(inner())

    def test_peers_receive_clean_bye(self):
        async def inner():
            server = NetObjectServer()
            await server.start()
            assert server.healthy
            client = NetCacheClient(0, server.host, server.port)
            await client.connect()
            try:
                await client.write("x", 1)
                await server.shutdown(grace=1.0)
                assert not server.healthy and server.draining
                # The client saw the BYE / EOF and ended cleanly
                # without poisoning completed requests.
                await asyncio.sleep(0.05)
                assert not client.link.channel.connected
            finally:
                await client.close()

        vtime.run(inner())

    def test_shutdown_is_idempotent(self):
        async def inner():
            server = NetObjectServer()
            await server.start()
            await server.shutdown(grace=0.1)
            await server.shutdown(grace=0.1)  # no-op second drain
            await server.close()

        vtime.run(inner())
