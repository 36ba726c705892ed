"""Unit tests for the repro.load building blocks: latency histograms, arrival
processes (determinism + rates), key samplers, workload mixes, and
scenario validation.  The scenario engine is covered separately in
``test_load_engine.py`` (net-marked)."""

import random

import pytest

from repro.load import (
    ArrivalError,
    Burst,
    ClosedLoop,
    FixedRate,
    PhaseStats,
    Poisson,
    Ramp,
    Scenario,
    ScenarioError,
    WorkloadError,
    ZipfianKeys,
    make_arrivals,
    make_workload,
    scale_arrivals,
)
from repro.load.report import (
    BENCH_SCHEMA,
    compare_bench,
    load_bench_json,
    render_bench,
    render_compare,
    write_bench_json,
)
from repro.load.worker import LATENCY_BUCKETS
from repro.load.workload import HotsetKeys, UniformKeys, key_name


class TestLatencyHistogram:
    """The phase tallies' histogram: the metrics registry's, on
    ``LATENCY_BUCKETS``."""

    REL = 2 ** -5

    def test_quantile_never_underestimates_and_bounds_error(self):
        # Every value from 1 us to 1 000 s: the bucket edges themselves,
        # values just above an edge (the worst case), and a log-uniform
        # sample in between.
        rng = random.Random(42)
        values = [1e-6, 1e3]
        values += [b for b in LATENCY_BUCKETS if b <= 1e3]
        values += [b * (1 + 1e-12) for b in LATENCY_BUCKETS if b < 1e3]
        values += [10 ** rng.uniform(-6, 3) for _ in range(2000)]
        for v in values:
            h = PhaseStats("p").service
            h.observe(v)
            est = h.quantile(0.5)
            assert v <= est <= v * (1 + self.REL), v

    def test_buckets_tile_1us_to_1000s(self):
        assert LATENCY_BUCKETS[0] == 1e-6
        assert LATENCY_BUCKETS[-2] < 1e3 <= LATENCY_BUCKETS[-1]
        for low, high in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:]):
            assert high / low == pytest.approx(1 + self.REL, rel=1e-9)

    def test_merge_is_bucket_exact(self):
        # Rolling phases into ``measured`` gives the histogram of one
        # tally that saw every observation.
        rng = random.Random(7)
        phases = [PhaseStats(name) for name in ("warmup", "ramp", "steady")]
        whole = PhaseStats("whole")
        for i in range(3000):
            v = rng.expovariate(100.0)
            whole.response.observe(v)
            phases[i % 3].response.observe(v)
        measured = PhaseStats("measured")
        for phase in phases:
            measured.merge(phase)
        assert measured.response.counts == whole.response.counts
        assert measured.response.count == whole.response.count == 3000
        assert measured.response.sum == pytest.approx(whole.response.sum)
        for q in (0.5, 0.9, 0.99, 0.999, 1.0):
            assert measured.response.quantile(q) == whole.response.quantile(q)

    def test_empty_histogram(self):
        stats = PhaseStats("p")
        assert stats.response.quantile(0.99) == 0.0
        assert stats.response.count == 0 and stats.completed == 0


class TestArrivals:
    def test_fixed_rate_count_and_spacing(self):
        sched = FixedRate(50).schedule(2.0, random.Random(1))
        assert len(sched) == 100
        assert sched[1] - sched[0] == pytest.approx(0.02)
        assert all(t < 2.0 for t in sched)

    def test_poisson_is_deterministic_per_seed(self):
        p = Poisson(80)
        a = p.schedule(5.0, random.Random(7))
        b = p.schedule(5.0, random.Random(7))
        c = p.schedule(5.0, random.Random(8))
        assert a == b
        assert a != c
        assert a == sorted(a)
        # Mean rate within 20% over a 5s window (seeded, so not flaky).
        assert len(a) == pytest.approx(400, rel=0.2)

    def test_ramp_density_increases(self):
        sched = Ramp(10, 90).schedule(4.0, random.Random(1))
        assert sched == sorted(sched)
        assert len(sched) == pytest.approx((10 + 90) / 2 * 4.0, abs=2)
        first = sum(1 for t in sched if t < 2.0)
        second = len(sched) - first
        assert second > first * 2  # 130 arrivals vs 70 expected

    def test_ramp_flat_degenerates_to_fixed(self):
        assert Ramp(30, 30).schedule(1.0, random.Random(1)) == FixedRate(
            30
        ).schedule(1.0, random.Random(1))

    def test_burst_counts_per_regime(self):
        b = Burst(base_rate=20, burst_rate=200, period=1.0, duty=0.2)
        sched = b.schedule(3.0, random.Random(1))
        assert sched == sorted(sched)
        in_burst = sum(1 for t in sched if (t % 1.0) < 0.2 + 1e-9)
        # Per period: 40 arrivals in the burst window, 16 outside.
        assert in_burst == pytest.approx(120, abs=6)
        assert len(sched) - in_burst == pytest.approx(48, abs=6)

    def test_burst_fractional_duration_terminates(self):
        # Regression: float-modulo segment math could produce a
        # zero-length segment at a period boundary and loop forever.
        sched = Burst(
            base_rate=20, burst_rate=200, period=1.0, duty=0.2
        ).schedule(1.2, random.Random(1))
        assert all(0 <= t < 1.2 for t in sched)
        assert len(sched) == pytest.approx(96, abs=6)

    def test_burst_zero_base_is_pure_on_off(self):
        sched = Burst(
            base_rate=0, burst_rate=100, period=0.5, duty=0.4
        ).schedule(1.0, random.Random(1))
        assert all((t % 0.5) < 0.2 + 1e-9 for t in sched)

    def test_closed_loop_has_no_schedule(self):
        c = ClosedLoop(think=0.01)
        assert not c.open_loop
        with pytest.raises(ArrivalError):
            c.schedule(1.0, random.Random(1))

    def test_make_arrivals_validates(self):
        assert make_arrivals({"kind": "fixed", "rate": 10}).rate == 10
        for bad in (
            {"kind": "warp"},
            {"rate": 10},
            {"kind": "fixed", "rate": -1},
            {"kind": "poisson"},
            {"kind": "burst", "burst_rate": 10, "duty": 1.5},
        ):
            with pytest.raises(ArrivalError):
                make_arrivals(bad)

    def test_scale_arrivals_scales_every_rate_field(self):
        spec = scale_arrivals(
            {"kind": "ramp", "start_rate": 10, "end_rate": 30}, 0.5
        )
        assert spec == {"kind": "ramp", "start_rate": 5.0, "end_rate": 15.0}
        with pytest.raises(ArrivalError):
            scale_arrivals({"kind": "fixed", "rate": 10}, 0.0)


class TestWorkload:
    def test_zipfian_shape(self):
        sampler = ZipfianKeys(100, theta=0.99)
        rng = random.Random(3)
        counts = {}
        for _ in range(20000):
            k = sampler.sample(rng)
            counts[k] = counts.get(k, 0) + 1
        top = counts[key_name(0)]
        mid = counts.get(key_name(49), 0)
        tail = counts.get(key_name(99), 0)
        assert top > 5 * max(mid, 1)
        assert top > 10 * max(tail, 1)
        # Analytic check: P(k0000) = 1/H_100(0.99) ~ 0.193.
        h = sum(1.0 / r ** 0.99 for r in range(1, 101))
        assert top / 20000 == pytest.approx(1.0 / h, rel=0.15)

    def test_hotset_concentration(self):
        sampler = HotsetKeys(100, hot_fraction=0.1, hot_weight=0.9)
        rng = random.Random(3)
        hot = sum(
            1 for _ in range(5000)
            if int(sampler.sample(rng)[1:]) < 10
        )
        assert hot / 5000 == pytest.approx(0.9, abs=0.03)

    def test_mix_respects_write_fraction_and_deadlines(self):
        mix = make_workload({
            "write_fraction": 0.25,
            "keys": {"kind": "uniform", "n": 8},
            "deadlines": [
                {"name": "fresh", "delta": 0.1, "weight": 1},
                {"name": "lax", "delta": 1.0, "weight": 3},
            ],
        })
        rng = random.Random(5)
        ops = [mix.next_op(rng) for _ in range(4000)]
        writes = [op for op in ops if op.kind == "write"]
        assert len(writes) / len(ops) == pytest.approx(0.25, abs=0.03)
        assert all(op.deadline is None for op in writes)
        reads = [op for op in ops if op.kind == "read"]
        fresh = sum(1 for op in reads if op.deadline == "fresh")
        assert fresh / len(reads) == pytest.approx(0.25, abs=0.04)

    def test_uniform_keys_reach_every_key_and_no_other(self):
        sampler = UniformKeys(5)
        rng = random.Random(7)
        seen = {sampler.sample(rng) for _ in range(500)}
        assert seen == set(sampler.keys()) == {key_name(i) for i in range(5)}

    @pytest.mark.parametrize("keys", [
        {"kind": "uniform", "n": 3},
        {"kind": "zipfian", "n": 5, "theta": 0.5},
        {"kind": "hotset", "n": 20, "hot_fraction": 0.2, "hot_weight": 0.8},
    ])
    def test_describe_rebuilds_the_same_mix(self, keys):
        spec = {
            "write_fraction": 0.4,
            "keys": keys,
            "deadlines": [{"name": "d", "delta": 0.2, "weight": 2.0}],
        }
        mix = make_workload(spec)
        assert mix.describe() == spec
        again = make_workload(mix.describe())
        a, b = random.Random(11), random.Random(11)
        assert [mix.next_op(a) for _ in range(50)] == [
            again.next_op(b) for _ in range(50)
        ]

    def test_workload_validation(self):
        for bad in (
            {"write_fraction": 1.5},
            {"keys": {"kind": "pareto"}},
            {"keys": {"kind": "uniform", "n": 0}},
            {"deadlines": [{"delta": 0.1}]},
            {"keys": {"kind": "zipfian", "n": 4, "theta": 0}},
            {"keys": {"kind": "hotset", "n": 4, "hot_fraction": 2}},
        ):
            with pytest.raises(WorkloadError):
                make_workload(bad)


class TestScenario:
    BASE = {
        "name": "t",
        "delta": 0.4,
        "target": {"kind": "ring", "servers": 3, "replicas": 2},
        "workload": {"write_fraction": 0.3},
        "phases": [
            {"name": "steady", "duration": 1.0,
             "arrivals": {"kind": "fixed", "rate": 10}},
        ],
    }

    def _with(self, **over):
        return Scenario.from_dict({**self.BASE, **over})

    def test_roundtrips_and_totals(self):
        s = self._with()
        assert [p.duration for p in s.phases] == [1.0]
        assert s.max_concurrency == 1  # sequential sites by default
        echo = s.describe()
        again = Scenario.from_dict(echo)
        assert again.delta == s.delta
        assert [p.name for p in again.phases] == ["steady"]

    def test_rejects_unknown_slo_field(self):
        with pytest.raises(ScenarioError):
            self._with(slo={"p99_latency": 1.0})

    def test_rejects_unknown_target_field(self):
        with pytest.raises(ScenarioError):
            self._with(target={"kind": "ring", "shards": 4})

    def test_rejects_bad_criterion(self):
        with pytest.raises(ScenarioError):
            self._with(criterion="linearizable")
        assert self._with(criterion=None).criterion is None

    def test_kill_primary_needs_cluster(self):
        phases = [
            {"name": "warm", "duration": 1,
             "arrivals": {"kind": "fixed", "rate": 5}},
            {"name": "fault", "duration": 1,
             "arrivals": {"kind": "fixed", "rate": 5},
             "fault": "kill-primary"},
        ]
        with pytest.raises(ScenarioError):
            self._with(phases=phases)
        s = self._with(
            phases=phases,
            target={"kind": "ring", "servers": 3, "replicas": 2,
                    "cluster": True},
        )
        assert s.phases[1].fault == "kill-primary"

    def test_rejects_unknown_fault_and_bad_fault_at(self):
        with pytest.raises(ScenarioError):
            self._with(phases=[
                {"name": "p", "duration": 1,
                 "arrivals": {"kind": "fixed", "rate": 5},
                 "fault": "split-brain"},
            ])
        with pytest.raises(ScenarioError):
            self._with(phases=[
                {"name": "p", "duration": 1,
                 "arrivals": {"kind": "fixed", "rate": 5},
                 "fault": "kill-primary", "fault_at": 1.5},
            ])

    def test_needs_a_measured_phase(self):
        with pytest.raises(ScenarioError):
            self._with(phases=[
                {"name": "w", "duration": 1, "measure": False,
                 "arrivals": {"kind": "fixed", "rate": 5}},
            ])

    def test_replicas_cannot_exceed_servers(self):
        with pytest.raises(ScenarioError):
            self._with(target={"kind": "ring", "servers": 2, "replicas": 3})

    def test_fixture_files_parse(self):
        import pathlib

        fixtures = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "scenarios"
        )
        names = sorted(p.name for p in fixtures.glob("*.json"))
        assert "ring_smoke.json" in names
        assert "kill_primary.json" in names
        for path in fixtures.glob("*.json"):
            scenario = Scenario.load(str(path))
            assert sum(p.duration for p in scenario.phases) > 0

    def test_invalid_json_reports_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ScenarioError, match="bad.json"):
            Scenario.load(str(bad))


def test_burst_schedule_covers_mean_rate():
    # Each process's realised schedule offers its nominal mean rate.
    for spec, rate in (
        ({"kind": "fixed", "rate": 40}, 40),
        ({"kind": "poisson", "rate": 40}, 40),
        ({"kind": "ramp", "start_rate": 20, "end_rate": 60}, 40),
        ({"kind": "burst", "base_rate": 10, "burst_rate": 100,
          "period": 1.0, "duty": 0.25}, 0.25 * 100 + 0.75 * 10),
    ):
        sched = make_arrivals(spec).schedule(5.0, random.Random(11))
        assert len(sched) / 5.0 == pytest.approx(rate, rel=0.2), spec


class TestBenchFiles:
    """``BENCH_<name>.json``: the writer, the loader and the diff."""

    def test_write_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        written = write_bench_json(path, "x", {"workers": 2}, {"ops": 10.5}, "n")
        loaded = load_bench_json(path)
        assert loaded == written
        assert loaded["schema"] == BENCH_SCHEMA and loaded["notes"] == "n"

    def test_load_rejects_a_file_without_metrics(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"bench": "x"}')
        with pytest.raises(ValueError, match="not a BENCH result file"):
            load_bench_json(str(path))

    def test_compare_gives_a_change_only_for_shared_numbers(self):
        a = {"metrics": {"x": 2.0, "flag": True, "d": {}, "z": 0}}
        b = {"metrics": {"x": 3.0, "flag": False, "d": {}, "z": 5, "new": 1}}
        assert compare_bench(a, b) == [
            ("flag", True, False, None),
            ("new", None, 1, None),
            ("x", 2.0, 3.0, 50.0),
            ("z", 0, 5, None),
        ]

    def test_render_bench_lists_metrics_sorted(self):
        text = render_bench({
            "bench": "x", "schema": 1, "created": 0,
            "metrics": {"b": 0.1234567, "a": {"k": 1}},
        })
        assert text.splitlines()[1:] == ["metrics:", '  a: {"k": 1}', "  b: 0.123457"]

    def test_render_compare_marks_a_missing_change(self):
        a = {"bench": "x", "metrics": {"ops": 10, "mode": "a"}}
        b = {"bench": "x", "metrics": {"ops": 12, "mode": "b"}}
        lines = render_compare("A.json", a, "B.json", b).splitlines()
        assert lines[0] == "comparing 'x': A=A.json  B=B.json"
        assert lines[3].split() == ["mode", "a", "b", "-"]
        assert lines[4].split() == ["ops", "10", "12", "+20.0%"]
