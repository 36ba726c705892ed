"""Tests for per-object delta overrides (the S-DSO idea, §4 ref [41])."""

import math

import pytest

from repro.analysis.metrics import read_staleness
from repro.checkers import check_sc
from repro.engine import CacheEngine
from repro.engine.versions import PhysicalVersion
from repro.protocol import ObjectDirectory, PhysicalServer, TimedCacheClient
from repro.protocol.cache_client import CausalCacheClient
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.trace import TraceRecorder


def rig(delta=math.inf, overrides=None):
    sim = Simulator()
    net = Network(sim, latency_model=ConstantLatency(0.01))
    server = PhysicalServer(0, sim, net)
    rec = TraceRecorder()
    clients = [
        TimedCacheClient(
            i, sim, net, ObjectDirectory([0]), delta=delta,
            delta_overrides=overrides, recorder=rec,
        )
        for i in (1, 2)
    ]
    return sim, server, clients, rec


class TestDeltaFor:
    def test_default_and_override(self):
        _, _, (a, _), _ = rig(delta=1.0, overrides={"hot": 0.1})
        assert a.delta_for("hot") == 0.1
        assert a.delta_for("cold") == 1.0

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError):
            rig(delta=1.0, overrides={"x": -0.5})


class TestTightOverrideOnScBase:
    """SC base (delta = inf) with one timed object: only that object is
    revalidated on its bound — selective timeliness."""

    def test_tight_object_revalidates_loose_object_does_not(self):
        sim, server, (a, b), rec = rig(delta=math.inf, overrides={"hot": 0.2})

        def proc():
            yield b.read("hot")
            yield b.read("cold")
            yield sim.timeout(1.0)  # both entries age well past 0.2
            yield b.read("hot")  # must revalidate (override)
            yield b.read("cold")  # plain SC: cached copy still fine

        sim.process(proc())
        sim.run()
        assert b.stats.validations == 1
        assert b.stats.fresh_hits == 1

    def test_staleness_bounded_only_for_the_tight_object(self):
        """The untimed object may drift arbitrarily (plain SC allows it —
        the reader's context never advances because the hot object's
        validations answer STILL_VALID); the overridden object is pinned
        to its bound."""
        sim, server, (a, b), rec = rig(delta=math.inf, overrides={"hot": 0.2})

        def writer():
            yield a.write("hot", "h0")
            for n in range(8):
                yield sim.timeout(0.25)
                yield a.write("cold", f"c{n}")

        def reader():
            yield sim.timeout(0.1)
            yield b.read("hot")
            yield b.read("cold")
            for _ in range(8):
                yield sim.timeout(0.25)
                yield b.read("hot")  # revalidated every round (override)
                yield b.read("cold")  # served from cache forever (SC)

        sim.process(writer())
        sim.process(reader())
        sim.run()
        history = rec.history()
        hot_stale = max(
            (read_staleness(history, r) for r in history.reads if r.obj == "hot"),
            default=0.0,
        )
        cold_stale = max(
            (read_staleness(history, r) for r in history.reads if r.obj == "cold"),
            default=0.0,
        )
        assert hot_stale <= 0.2 + 0.1
        assert cold_stale > 1.0  # the untimed object drifts far past that
        assert check_sc(history)  # ordering guarantee is untouched


class TestLooseOverrideOnTimedBase:
    def test_loose_object_keeps_its_cache_longer(self):
        sim, server, (a, b), rec = rig(delta=0.2, overrides={"archive": 5.0})

        def proc():
            yield b.read("hot")
            yield b.read("archive")
            yield sim.timeout(1.0)
            yield b.read("hot")  # revalidates (global delta 0.2)
            yield b.read("archive")  # fresh hit (override 5.0)

        sim.process(proc())
        sim.run()
        assert b.stats.validations == 1
        assert b.stats.fresh_hits == 1


class TestCausalOverrides:
    def test_beta_rule_respects_override(self):
        sim = Simulator()
        net = Network(sim, latency_model=ConstantLatency(0.01))
        from repro.protocol import CausalServer

        server = CausalServer(0, sim, net, vector_width=1)
        client = CausalCacheClient(
            1, sim, net, ObjectDirectory([0]), slot=0, vector_width=1,
            delta=math.inf, delta_overrides={"hot": 0.2},
        )

        def proc():
            yield client.read("hot")
            yield client.read("cold")
            yield sim.timeout(1.0)
            yield client.read("hot")  # beta too old under the override
            yield client.read("cold")  # plain CC: still usable

        sim.process(proc())
        sim.run()
        assert client.stats.validations == 1
        assert client.stats.fresh_hits == 1


class TestRule3LoosestBound:
    """Rule 3 advances the global context by the *loosest* bound in
    force; the engine caches the overrides' maximum at construction, so
    these pin what that number must keep meaning."""

    @staticmethod
    def engine_with(delta, overrides, *objs):
        engine = CacheEngine(delta=delta, delta_overrides=overrides)
        for obj in objs:
            engine.install_fetched(PhysicalVersion(obj, 0, 0.0, 0.0), 0.0)
        return engine

    def test_loose_override_defeats_the_global_context(self):
        engine = self.engine_with(0.2, {"archive": 5.0}, "hot", "archive")
        engine.rule3(1.0)
        assert engine.context == 0.0  # 1.0 - 5.0, not 1.0 - 0.2
        assert not engine.cache["archive"].old and not engine.cache["hot"].old
        assert engine.usable(engine.cache["archive"], now=1.0)
        assert not engine.usable(engine.cache["hot"], now=1.0)  # global 0.2
        engine.rule3(6.0)  # now even the loosest bound has run out
        assert engine.context == 1.0
        assert engine.cache["archive"].old and engine.cache["hot"].old

    def test_tight_override_is_enforced_in_usable_not_by_the_context(self):
        engine = self.engine_with(math.inf, {"hot": 0.2}, "hot", "cold")
        engine.rule3(1.0)
        assert engine.context == 0.0 and engine.stats.marked_old == 0
        assert not engine.usable(engine.cache["hot"], now=1.0)
        assert engine.usable(engine.cache["cold"], now=1.0)
        assert engine.lookup("hot", now=1.0).action == "validate"
        assert engine.lookup("cold", now=1.0).hit

    def test_tight_override_does_not_tighten_the_global_advance(self):
        engine = self.engine_with(1.0, {"hot": 0.1}, "hot", "cold")
        engine.rule3(0.5)
        assert engine.context == 0.0
        assert engine.usable(engine.cache["cold"], now=0.5)
        assert not engine.usable(engine.cache["hot"], now=0.5)

    def test_delta_set_after_construction_is_still_honoured(self):
        """``engine.delta`` is a plain attribute its owner may assign at
        any time, so only the overrides' share may be precomputed."""
        engine = self.engine_with(math.inf, {"archive": 0.5}, "x", "archive")
        engine.rule3(10.0)
        assert engine.context == 0.0
        engine.delta = 0.1
        engine.rule3(10.0)
        assert engine.context == 9.5  # loosest of 0.1 and the 0.5 override
