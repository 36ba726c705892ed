"""Tests for the network model and seeded randomness."""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import (
    ConstantLatency,
    LogNormalLatency,
    Message,
    Network,
    UniformLatency,
)
from repro.sim.rng import (
    RngRegistry,
    ZipfSampler,
    bounded,
    exponential,
    lognormal,
)


class Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_message(self, message):
        self.received.append(message)


class TestNetwork:
    def _make(self, **kw):
        sim = Simulator()
        net = Network(sim, rng=random.Random(1), **kw)
        a, b = Sink(0), Sink(1)
        net.register(a)
        net.register(b)
        return sim, net, a, b

    def test_delivery(self):
        sim, net, a, b = self._make(latency_model=ConstantLatency(0.5))
        net.send(0, 1, "ping", {"n": 1})
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].kind == "ping"
        assert sim.now == 0.5

    def test_unknown_destination(self):
        sim, net, a, b = self._make()
        with pytest.raises(KeyError):
            net.send(0, 99, "ping")

    def test_duplicate_registration(self):
        sim, net, a, b = self._make()
        with pytest.raises(ValueError):
            net.register(Sink(0))

    def test_stats_counted(self):
        sim, net, a, b = self._make(latency_model=ConstantLatency(0.1))
        net.send(0, 1, "ping", size=5)
        net.send(1, 0, "pong", size=3)
        sim.run()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 2
        assert net.stats.bytes_sent == 8
        assert net.stats.by_kind == {"ping": 1, "pong": 1}

    def test_drops(self):
        sim, net, a, b = self._make(
            latency_model=ConstantLatency(0.1), drop_probability=0.5
        )
        for _ in range(100):
            net.send(0, 1, "ping")
        sim.run()
        assert net.stats.messages_dropped > 10
        assert len(b.received) + net.stats.messages_dropped == 100

    def test_invalid_drop_probability(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, drop_probability=1.0)

    def test_broadcast_excludes_source(self):
        sim, net, a, b = self._make(latency_model=ConstantLatency(0.1))
        c = Sink(2)
        net.register(c)
        count = net.broadcast(0, "hello")
        sim.run()
        assert count == 2
        assert not a.received and b.received and c.received


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(0.3).sample(random.Random(0)) == 0.3
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.1, 0.2)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.1 <= model.sample(rng) <= 0.2
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_lognormal_positive_with_base(self):
        model = LogNormalLatency(median=0.05, sigma=0.5, base=0.01)
        rng = random.Random(0)
        for _ in range(100):
            assert model.sample(rng) > 0.01


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(7).stream("x").random()
        b = RngRegistry(7).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        reg = RngRegistry(7)
        x1 = reg.stream("x")
        _ = reg.stream("y").random()  # consuming y must not perturb x
        reg2 = RngRegistry(7)
        assert x1.random() == reg2.stream("x").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream(
            "x"
        ).random()

    def test_stream_identity_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")


class TestDistributions:
    def test_zipf_rank_bias(self):
        sampler = ZipfSampler(100, 1.0, random.Random(3))
        draws = [sampler.sample() for _ in range(5000)]
        assert all(0 <= d < 100 for d in draws)
        top = sum(1 for d in draws if d == 0) / len(draws)
        mid = sum(1 for d in draws if d == 49) / len(draws)
        assert top > 10 * max(mid, 1e-4)

    def test_zipf_alpha_zero_uniform(self):
        sampler = ZipfSampler(10, 0.0, random.Random(3))
        draws = [sampler.sample() for _ in range(5000)]
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 300  # roughly uniform

    def test_zipf_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0, random.Random(0))

    def test_exponential_mean(self):
        rng = random.Random(5)
        draws = [exponential(rng, 2.0) for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(0.5, rel=0.1)
        with pytest.raises(ValueError):
            exponential(rng, 0.0)

    def test_lognormal_median(self):
        rng = random.Random(5)
        draws = sorted(lognormal(rng, 2.0, 0.5) for _ in range(5001))
        assert draws[2500] == pytest.approx(2.0, rel=0.15)
        with pytest.raises(ValueError):
            lognormal(rng, 0.0, 1.0)

    def test_bounded(self):
        assert bounded(5.0, 0.0, 1.0) == 1.0
        assert bounded(-5.0, 0.0, 1.0) == 0.0
        assert bounded(0.5, 0.0, 1.0) == 0.5
