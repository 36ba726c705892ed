"""Observability over the live TCP stack: the instrumented ring soak
with a live /metrics scrape, online/offline verdict agreement, and the
server's graceful drain — in virtual time (:mod:`repro.sim.vtime`): the
mid-run scrape lands at 0.2 s of the soak's own clock, not the host's.
The one real-loop smoke is ``test_single_server_families``."""

import asyncio

import pytest

from repro.net.client import NetCacheClient, NetError
from repro.net.workloads import ring_cluster
from repro.net.server import NetObjectServer
from repro.obs.expo import MetricsServer, scrape
from repro.obs.metrics import Registry
from repro.sim import vtime

pytestmark = pytest.mark.net


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
                registry=registry, metric_labels={"stack": "tcp"},
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


class TestGracefulDrain:
    def test_new_connections_refused_after_drain(self):
        async def inner():
            server = NetObjectServer()
            await server.start()
            host, port = server.host, server.port
            await server.shutdown(grace=0.1)
            with pytest.raises((ConnectionError, NetError, OSError)):
                client = NetCacheClient(
                    0, host, port, sync_retries=0,
                )
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
                assert not client.connected
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
