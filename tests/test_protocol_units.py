"""Unit-level tests of the servers and cache clients (single operations)."""

import math

import pytest

from repro.clocks.vector import VectorTimestamp
from repro.engine import CausalServerEngine
from repro.engine.versions import LogicalVersion
from repro.protocol.cache_client import (
    CausalCacheClient,
    StalenessAction,
    TimedCacheClient,
)
from repro.protocol.server import (
    CausalServer,
    ObjectDirectory,
    PhysicalServer,
    PushPolicy,
)
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.trace import TraceRecorder


def physical_rig(delta=math.inf, action=StalenessAction.MARK_OLD, push=PushPolicy.NONE):
    sim = Simulator()
    net = Network(sim, latency_model=ConstantLatency(0.01))
    server = PhysicalServer(0, sim, net, push_policy=push)
    directory = ObjectDirectory([0])
    rec = TraceRecorder()
    clients = [
        TimedCacheClient(i, sim, net, directory, delta=delta,
                         staleness_action=action, recorder=rec)
        for i in (1, 2)
    ]
    for c in clients:
        server.subscribe(c.node_id)
    return sim, server, clients, rec


def causal_rig(delta=math.inf, action=StalenessAction.MARK_OLD):
    sim = Simulator()
    net = Network(sim, latency_model=ConstantLatency(0.01))
    server = CausalServer(0, sim, net, vector_width=2)
    directory = ObjectDirectory([0])
    rec = TraceRecorder()
    clients = [
        CausalCacheClient(i + 1, sim, net, directory, slot=i, vector_width=2,
                          delta=delta, staleness_action=action, recorder=rec)
        for i in (0, 1)
    ]
    return sim, server, clients, rec


def collect(event):
    """Capture an event's value once it fires."""
    box = []
    event.add_callback(lambda e: box.append(e.value))
    return box


class TestObjectDirectory:
    def test_stable_assignment(self):
        d = ObjectDirectory([3, 5])
        assert d.server_for("X") == d.server_for("X")
        assert d.server_for("X") in (3, 5)

    def test_needs_servers(self):
        with pytest.raises(ValueError):
            ObjectDirectory([])


class TestPhysicalProtocol:
    def test_cold_read_returns_initial_value(self):
        sim, server, (a, _), rec = physical_rig()
        box = collect(a.read("X"))
        sim.run()
        assert box == [0]
        assert a.stats.fetches == 1

    def test_write_then_read_is_fresh_hit(self):
        sim, server, (a, _), rec = physical_rig()

        def proc():
            yield a.write("X", "v1")
            box = collect(a.read("X"))
            yield sim.timeout(0.0)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert a.stats.fresh_hits == 1
        assert server.writes_installed == 1

    def test_remote_write_invisible_until_validation(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            box0 = collect(b.read("X"))  # b caches the initial value
            yield sim.timeout(0.1)
            yield a.write("X", "v1")
            box1 = collect(b.read("X"))  # cached entry is still usable (SC)
            yield sim.timeout(0.1)
            assert box0 == [0] and box1 == [0]

        sim.process(proc())
        sim.run()
        assert b.stats.fresh_hits == 1

    def test_context_advance_marks_other_entries_old(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            yield b.read("X")  # cache X
            yield sim.timeout(0.1)
            yield a.write("Y", "v1")  # raises server-side Y alpha
            yield sim.timeout(0.1)
            yield b.read("Y")  # rule 1: context := alpha(Y) > omega(X)
            yield sim.timeout(0.0)
            entry = b.cache["X"]
            assert entry.old  # marked, not dropped (MARK_OLD)

        sim.process(proc())
        sim.run()
        assert b.stats.marked_old >= 1

    def test_invalidate_action_drops_entries(self):
        sim, server, (a, b), rec = physical_rig(action=StalenessAction.INVALIDATE)

        def proc():
            yield b.read("X")
            yield sim.timeout(0.1)
            yield a.write("Y", "v1")
            yield sim.timeout(0.1)
            yield b.read("Y")
            yield sim.timeout(0.0)
            assert "X" not in b.cache

        sim.process(proc())
        sim.run()
        assert b.stats.invalidations >= 1

    def test_old_entry_validates_with_still_valid(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            yield b.read("X")
            yield a.write("Y", "v1")
            yield b.read("Y")  # X becomes old
            box = collect(b.read("X"))  # must validate; X unchanged
            yield sim.timeout(0.1)
            assert box == [0]

        sim.process(proc())
        sim.run()
        assert b.stats.revalidated == 1

    def test_old_entry_refreshes_when_changed(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            yield b.read("X")
            yield a.write("X", "v1")  # changes X at the server
            yield a.write("Y", "v2")
            yield b.read("Y")  # X marked old
            box = collect(b.read("X"))  # validation returns new version
            yield sim.timeout(0.1)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert b.stats.refreshed == 1

    def test_rule3_forces_validation_after_delta(self):
        sim, server, (a, b), rec = physical_rig(delta=0.5)

        def proc():
            yield b.read("X")
            yield sim.timeout(1.0)  # > delta with no traffic
            yield b.read("X")  # rule 3 pushes context to t - delta

        sim.process(proc())
        sim.run()
        assert b.stats.validations == 1
        assert b.stats.fresh_hits == 0

    def test_rule3_inside_delta_is_hit(self):
        sim, server, (a, b), rec = physical_rig(delta=5.0)

        def proc():
            yield b.read("X")
            yield sim.timeout(1.0)
            yield b.read("X")

        sim.process(proc())
        sim.run()
        assert b.stats.fresh_hits == 1

    def test_push_policy_delivers_fresh_versions(self):
        sim, server, (a, b), rec = physical_rig(push=PushPolicy.PUSH)

        def proc():
            yield b.read("X")
            yield a.write("X", "v1")
            yield sim.timeout(0.1)  # push arrives
            box = collect(b.read("X"))
            yield sim.timeout(0.1)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert b.stats.pushes >= 1
        assert b.stats.fresh_hits == 1  # served the pushed version locally

    def test_invalidation_policy_marks_entry(self):
        sim, server, (a, b), rec = physical_rig(push=PushPolicy.INVALIDATE)

        def proc():
            yield b.read("X")
            yield a.write("X", "v1")
            yield sim.timeout(0.1)
            box = collect(b.read("X"))  # must validate now
            yield sim.timeout(0.1)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert b.stats.push_invalidations >= 1
        assert b.stats.fresh_hits == 0

    def test_lww_on_install_time(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            yield a.write("X", "va")
            yield b.write("X", "vb")
            yield sim.timeout(0.1)
            assert server.store["X"].value == "vb"

        sim.process(proc())
        sim.run()
        assert server.writes_installed == 2

    def test_trace_recorded(self):
        sim, server, (a, b), rec = physical_rig()

        def proc():
            yield a.write("X", "v1")
            yield b.read("X")

        sim.process(proc())
        sim.run()
        h = rec.history()
        assert len(h.writes) == 1 and len(h.reads) == 1


class TestCausalProtocol:
    def test_write_ticks_vector_clock(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield a.write("X", "v1")
            assert list(a.vclock.now()) == [1, 0]

        sim.process(proc())
        sim.run()

    def test_fetch_merges_alpha_into_clock(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield a.write("X", "v1")
            yield b.read("X")
            assert list(b.vclock.now()) == [1, 0]

        sim.process(proc())
        sim.run()

    def test_local_write_never_invalidates_local_cache(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield a.read("X")
            yield a.write("Y", "v1")
            box = collect(a.read("X"))  # still usable: local omega advanced
            yield sim.timeout(0.0)
            assert box == [0]

        sim.process(proc())
        sim.run()
        assert a.stats.fresh_hits == 1
        assert a.stats.invalidations == 0 and a.stats.marked_old == 0

    def test_causally_stale_entry_detected_on_fetch(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield b.read("X")  # b caches X at vector (0,0)
            yield a.write("X", "ax")  # a overwrites X
            yield a.write("Y", "ay")  # causally after the X write
            yield b.read("Y")  # fetch: context := (2,0); X omega behind
            yield sim.timeout(0.0)
            entry = b.cache["X"]
            assert entry.old

        sim.process(proc())
        sim.run()
        assert b.stats.marked_old >= 1

    def test_beta_rule_only_with_finite_delta(self):
        for delta, expect_hit in ((math.inf, 1), (0.5, 0)):
            sim, server, (a, b), rec = causal_rig(delta=delta)

            def proc():
                yield b.read("X")
                yield sim.timeout(1.0)  # beta ages past delta = 0.5
                yield b.read("X")

            sim.process(proc())
            sim.run()
            assert b.stats.fresh_hits == expect_hit, f"delta={delta}"

    def test_concurrent_write_tiebreak_prefers_later_beta(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield a.write("X", "early")
            yield sim.timeout(0.5)
            yield b.write("X", "late")
            yield sim.timeout(0.1)
            assert server.store["X"].value == "late"

        sim.process(proc())
        sim.run()

    def test_causally_later_write_always_wins(self):
        sim, server, (a, b), rec = causal_rig()

        def proc():
            yield a.write("X", "first")
            yield b.read("X")  # b now causally after a's write
            yield b.write("X", "second")
            yield sim.timeout(0.1)
            assert server.store["X"].value == "second"

        sim.process(proc())
        sim.run()

    def test_push_policy_causal(self):
        sim = Simulator()
        net = Network(sim, latency_model=ConstantLatency(0.01))
        server = CausalServer(0, sim, net, vector_width=2,
                              push_policy=PushPolicy.PUSH)
        directory = ObjectDirectory([0])
        rec = TraceRecorder()
        clients = [
            CausalCacheClient(i + 1, sim, net, directory, slot=i,
                              vector_width=2, recorder=rec)
            for i in (0, 1)
        ]
        a, b = clients
        server.subscribe(a.node_id)
        server.subscribe(b.node_id)

        def proc():
            yield b.read("X")
            yield a.write("X", "v1")
            yield sim.timeout(0.1)  # push arrives at b
            box = collect(b.read("X"))
            yield sim.timeout(0.1)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert b.stats.pushes >= 1

    def test_invalidate_policy_causal(self):
        sim = Simulator()
        net = Network(sim, latency_model=ConstantLatency(0.01))
        server = CausalServer(0, sim, net, vector_width=2,
                              push_policy=PushPolicy.INVALIDATE)
        directory = ObjectDirectory([0])
        clients = [
            CausalCacheClient(i + 1, sim, net, directory, slot=i,
                              vector_width=2)
            for i in (0, 1)
        ]
        a, b = clients
        server.subscribe(a.node_id)
        server.subscribe(b.node_id)

        def proc():
            yield b.read("X")
            yield a.write("X", "v1")
            yield sim.timeout(0.1)
            box = collect(b.read("X"))  # must validate, gets v1
            yield sim.timeout(0.1)
            assert box == ["v1"]

        sim.process(proc())
        sim.run()
        assert b.stats.push_invalidations >= 1
        assert b.stats.fresh_hits == 0

    def test_wins_rules(self):
        v1 = LogicalVersion(
            "X", 1, alpha=VectorTimestamp((1, 0)), omega=VectorTimestamp((1, 0)),
            writer=1, beta=1.0, birth=1.0,
        )
        v2 = LogicalVersion(
            "X", 2, alpha=VectorTimestamp((0, 1)), omega=VectorTimestamp((0, 1)),
            writer=2, beta=2.0, birth=2.0,
        )
        later = LogicalVersion(
            "X", 3, alpha=VectorTimestamp((2, 1)), omega=VectorTimestamp((2, 1)),
            writer=1, beta=3.0, birth=3.0,
        )
        # Concurrent: the arriving write wins (install-order LWW).
        assert CausalServerEngine._wins(v2, v1)
        assert CausalServerEngine._wins(v1, v2)
        # Causally later wins; causally older and equal lose.
        assert CausalServerEngine._wins(later, v1)
        assert not CausalServerEngine._wins(v1, later)
        assert not CausalServerEngine._wins(v1, v1)
