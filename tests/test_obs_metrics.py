"""The repro.obs metrics core: counters, gauges, histograms, registry,
snapshots, and the Prometheus text exposition."""

import json
import math

import pytest

from repro.obs.metrics import (
    MetricError,
    Registry,
    diff_snapshots,
    exponential_buckets,
    family,
    load_snapshot,
)
from repro.obs import bind_client_stats
from repro.obs.expo import render_prometheus, snapshot_rows
from repro.protocol import Cluster
from repro.workloads import uniform_workload


class TestCounters:
    def test_inc_accumulates(self):
        reg = Registry()
        c = reg.counter("repro_test_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counters_only_go_up(self):
        reg = Registry()
        with pytest.raises(MetricError):
            reg.counter("repro_test_total").inc(-1)

    def test_labeled_children_are_independent(self):
        reg = Registry()
        c = reg.counter("repro_ops_total", labels=("kind",))
        c.labels(kind="read").inc()
        c.labels(kind="read").inc()
        c.labels(kind="write").inc()
        samples = {
            s["labels"]["kind"]: s["value"] for s in c.samples()
        }
        assert samples == {"read": 2.0, "write": 1.0}

    def test_prebound_child_is_stable(self):
        reg = Registry()
        c = reg.counter("repro_ops_total", labels=("kind",))
        assert c.labels(kind="read") is c.labels(kind="read")

    def test_label_mismatch_rejected(self):
        reg = Registry()
        c = reg.counter("repro_ops_total", labels=("kind",))
        with pytest.raises(MetricError):
            c.labels(wrong="x")
        with pytest.raises(MetricError):
            c.labels()


class TestGauges:
    def test_set_inc_dec(self):
        g = Registry().gauge("repro_depth")
        g.set(10)
        g.inc(2)
        g.inc(-5)
        assert g.value == 7.0

    def test_callback_backed(self):
        state = {"v": 1.0}
        g = Registry().gauge("repro_now_seconds")
        g.set_function(lambda: state["v"])
        assert g.value == 1.0
        state["v"] = 9.0
        assert g.value == 9.0


class TestHistograms:
    def test_observations_land_in_buckets(self):
        reg = Registry()
        h = reg.histogram("repro_lag_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        (sample,) = h.samples()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(6.05)
        # Cumulative counts: <=0.1 -> 1, <=1.0 -> 3, +inf -> 4.
        assert sample["buckets"] == [[0.1, 1], [1.0, 3], [math.inf, 4]]

    def test_quantile_returns_bucket_bound(self):
        h = Registry().histogram("repro_lag_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 2.0):
            h.observe(v)
        assert h._default.quantile(0.5) == 0.1
        assert h._default.quantile(0.99) == 10.0
        assert Registry().histogram("repro_x").labels().quantile(0.5) == 0.0

    def test_bucket_bounds_must_increase(self):
        with pytest.raises(MetricError):
            Registry().histogram("repro_x", buckets=(1.0, 0.5))
        with pytest.raises(MetricError):
            Registry().histogram("repro_x", buckets=(1.0, 1.0))

    def test_exponential_buckets(self):
        b = exponential_buckets(0.001, 2.0, 4)
        assert b == (0.001, 0.002, 0.004, 0.008)
        for bad in ((0, 2, 4), (0.1, 1.0, 4), (0.1, 2.0, 0)):
            with pytest.raises(MetricError):
                exponential_buckets(*bad)

    def test_merge_is_exact_at_bucket_granularity(self):
        # A child that saw everything must agree — counts, sum, and every
        # quantile — with two children merged after a split of the same
        # observations (merging adds no error beyond bucketing).
        buckets = exponential_buckets(0.001, 2.0, 12)
        whole = Registry().histogram("repro_w_seconds", buckets=buckets)
        a = Registry().histogram("repro_a_seconds", buckets=buckets)
        b = Registry().histogram("repro_b_seconds", buckets=buckets)
        values = [0.0005 * (i + 1) * 1.37 for i in range(200)]
        for i, v in enumerate(values):
            whole.observe(v)
            (a if i % 2 else b).observe(v)
        a._default.merge(b._default)
        assert a._default.count == whole._default.count == len(values)
        assert a._default.sum == pytest.approx(whole._default.sum)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert a._default.quantile(q) == whole._default.quantile(q)

    def test_merge_quantile_error_is_one_bucket_width(self):
        # Documented bound: the estimate is the bucket upper edge, so
        # true <= estimate <= true * factor for exponential buckets.
        factor = 2.0
        h = Registry().histogram(
            "repro_q_seconds", buckets=exponential_buckets(0.001, factor, 20)
        )
        true_value = 0.0123
        h.observe(true_value)
        estimate = h._default.quantile(0.99)
        assert true_value <= estimate <= true_value * factor

    def test_merge_rejects_mismatched_bounds(self):
        a = Registry().histogram("repro_a_seconds", buckets=(0.1, 1.0))
        b = Registry().histogram("repro_b_seconds", buckets=(0.2, 2.0))
        b.observe(0.5)
        with pytest.raises(MetricError):
            a._default.merge(b._default)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = Registry()
        assert reg.counter("repro_a_total") is reg.counter("repro_a_total")

    def test_kind_clash_rejected(self):
        reg = Registry()
        reg.counter("repro_a_total")
        with pytest.raises(MetricError):
            reg.gauge("repro_a_total")

    def test_label_clash_rejected(self):
        reg = Registry()
        reg.counter("repro_a_total", labels=("kind",))
        with pytest.raises(MetricError):
            reg.counter("repro_a_total", labels=("site",))

    def test_invalid_names_rejected(self):
        reg = Registry()
        with pytest.raises(MetricError):
            reg.counter("0bad")
        with pytest.raises(MetricError):
            reg.counter("repro_ok_total", labels=("bad-label",))

    def test_collector_families_merge_by_name(self):
        reg = Registry()
        reg.counter("repro_shared_total", labels=("who",)).labels(
            who="direct"
        ).inc(3)
        reg.register_collector(lambda: [
            family("repro_shared_total", "counter", "",
                   [({"who": "pulled"}, 7)]),
        ])
        (fam,) = [f for f in reg.collect() if f["name"] == "repro_shared_total"]
        got = {s["labels"]["who"]: s["value"] for s in fam["samples"]}
        assert got == {"direct": 3.0, "pulled": 7.0}

    def test_collectors_are_pulled_on_every_collect_after_direct_metrics(self):
        reg = Registry()
        reg.gauge("repro_z")
        reg.counter("repro_a_total")
        pulled = [1]
        col = lambda: [family("repro_pulled", "gauge", "", [({}, pulled[0])])]
        assert reg.register_collector(col) is col
        reg.register_collector(lambda: [family("repro_b", "gauge", "", [])])
        names = [f["name"] for f in reg.collect()]
        assert names == ["repro_a_total", "repro_z", "repro_pulled", "repro_b"]
        pulled[0] = 9
        (fam,) = [f for f in reg.collect() if f["name"] == "repro_pulled"]
        assert [s["value"] for s in fam["samples"]] == [9]

    def test_family_rejects_histogram_kind(self):
        with pytest.raises(MetricError):
            family("repro_x", "histogram")


class TestSnapshots:
    def _snap(self, counter=1.0, gauge=2.0):
        reg = Registry()
        reg.counter("repro_c_total").inc(counter)
        reg.gauge("repro_g").set(gauge)
        h = reg.histogram("repro_h_seconds", buckets=(1.0,))
        h.observe(0.5)
        return reg.snapshot()

    def test_save_and_load_roundtrip(self, tmp_path):
        reg = Registry()
        reg.counter("repro_c_total").inc(4)
        path = str(tmp_path / "snap.json")
        reg.save(path)
        snap = load_snapshot(path)
        (fam,) = [f for f in snap["metrics"] if f["name"] == "repro_c_total"]
        assert fam["samples"][0]["value"] == 4

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(MetricError):
            load_snapshot(str(path))

    def test_diff_subtracts_counters_and_histograms(self):
        before, after = self._snap(1, 10), self._snap(5, 99)
        diff = diff_snapshots(before, after)
        by_name = {f["name"]: f for f in diff["metrics"]}
        assert by_name["repro_c_total"]["samples"][0]["value"] == 4.0
        assert by_name["repro_g"]["samples"][0]["value"] == 99.0
        assert by_name["repro_h_seconds"]["samples"][0]["count"] == 0


class TestPrometheusText:
    def test_counter_gauge_and_histogram_lines(self):
        reg = Registry()
        reg.counter("repro_c_total", "a counter", labels=("kind",)).labels(
            kind="read"
        ).inc(2)
        reg.histogram("repro_h_seconds", buckets=(0.1,)).observe(0.05)
        text = render_prometheus(reg)
        assert "# HELP repro_c_total a counter" in text
        assert "# TYPE repro_c_total counter" in text
        assert 'repro_c_total{kind="read"} 2' in text
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_h_seconds_sum 0.05" in text
        assert "repro_h_seconds_count 1" in text

    def test_label_values_escaped(self):
        reg = Registry()
        reg.counter("repro_c_total", labels=("p",)).labels(
            p='val"ue\nx\\y'
        ).inc()
        text = render_prometheus(reg)
        assert 'p="val\\"ue\\nx\\\\y"' in text

    def test_renders_snapshot_dict_identically(self):
        reg = Registry()
        reg.counter("repro_c_total").inc()
        assert render_prometheus(reg.snapshot()) == render_prometheus(reg)

    def test_snapshot_rows_flatten(self):
        reg = Registry()
        reg.counter("repro_c_total", labels=("kind",)).labels(kind="x").inc(2)
        reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        rows = snapshot_rows(
            reg.snapshot(), kinds=("counter", "gauge", "histogram")
        )
        as_map = {(r["metric"], r["labels"]): r["value"] for r in rows}
        assert as_map[("repro_c_total", "kind=x")] == 2
        assert as_map[("repro_h_seconds_count", "")] == 1


class TestSimulatorBridge:
    def test_a_registry_bound_to_a_simulated_cluster_reads_its_counters(self):
        """Pull collectors: the simulated hot path keeps its native int
        counters and the registry reads them when a snapshot is taken."""
        cluster = Cluster(n_clients=4, n_servers=2, variant="tsc", delta=0.5, seed=11)
        registry = Registry()
        for client in cluster.clients:
            bind_client_stats(registry, client.stats, site=str(client.node_id))
        cluster.spawn(uniform_workload([f"obj{i}" for i in range(8)], n_ops=50))
        cluster.run()
        families = {f["name"]: f for f in registry.snapshot()["metrics"]}
        ops = families["repro_client_ops_total"]["samples"]
        assert {s["labels"]["site"] for s in ops} == {
            str(client.node_id) for client in cluster.clients
        }
        assert sum(s["value"] for s in ops) == 4 * 50
