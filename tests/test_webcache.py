"""Tests for the web cache subsystem (Section 4)."""

import math
import random

import pytest

from repro.analysis.metrics import staleness_report
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.trace import TraceRecorder
from repro.webcache.documents import DocumentVersion, doc_name
from repro.webcache.harness import compare_policies, run_web_experiment
from repro.webcache.origin import OriginServer
from repro.webcache.policies import (
    AdaptiveTTL,
    FixedTTL,
    PollEveryTime,
    ServerInvalidation,
)
from repro.webcache.proxy import WebCache


class TestPolicies:
    def test_poll_every_time_expires_immediately(self):
        policy = PollEveryTime()
        doc = DocumentVersion("d", "b", 0.0)
        assert policy.fresh_until(doc, 5.0) == 5.0
        assert policy.effective_delta() == 0.0

    def test_fixed_ttl(self):
        policy = FixedTTL(2.0)
        doc = DocumentVersion("d", "b", 0.0)
        assert policy.fresh_until(doc, 5.0) == 7.0
        assert policy.effective_delta() == 2.0
        with pytest.raises(ValueError):
            FixedTTL(-1.0)

    def test_adaptive_ttl_scales_with_age(self):
        policy = AdaptiveTTL(factor=0.5, min_ttl=0.1, max_ttl=10.0)
        young = DocumentVersion("d", "b", 9.0)  # age 1 at t=10
        old = DocumentVersion("d", "b", 0.0)  # age 10 at t=10
        assert policy.fresh_until(young, 10.0) == pytest.approx(10.5)
        assert policy.fresh_until(old, 10.0) == pytest.approx(15.0)

    def test_adaptive_ttl_clamped(self):
        policy = AdaptiveTTL(factor=0.5, min_ttl=0.2, max_ttl=1.0)
        brand_new = DocumentVersion("d", "b", 10.0)
        ancient = DocumentVersion("d", "b", 0.0)
        assert policy.fresh_until(brand_new, 10.0) == pytest.approx(10.2)
        assert policy.fresh_until(ancient, 100.0) == pytest.approx(101.0)

    def test_adaptive_ttl_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTTL(factor=0.0)
        with pytest.raises(ValueError):
            AdaptiveTTL(min_ttl=5.0, max_ttl=1.0)

    def test_invalidation_policy_never_expires(self):
        policy = ServerInvalidation()
        doc = DocumentVersion("d", "b", 0.0)
        assert policy.fresh_until(doc, 5.0) == math.inf
        assert policy.needs_invalidations


def rig(policy, track=None):
    sim = Simulator()
    net = Network(sim, latency_model=ConstantLatency(0.01), rng=random.Random(0))
    rec = TraceRecorder(initial_value=None)
    origin = OriginServer(
        0, sim, net,
        track_caches=policy.needs_invalidations if track is None else track,
        recorder=rec,
    )
    cache = WebCache(1, sim, net, origin_id=0, policy=policy, recorder=rec)
    return sim, origin, cache, rec


def collect(event):
    box = []
    event.add_callback(lambda e: box.append(e.value))
    return box


class TestOriginAndProxy:
    def test_cold_get_returns_v0(self):
        sim, origin, cache, rec = rig(FixedTTL(1.0))
        box = collect(cache.request("doc0"))
        sim.run()
        assert box == ["doc0#v0"]
        assert cache.stats.full_responses == 1

    def test_fresh_hit_within_ttl(self):
        sim, origin, cache, rec = rig(FixedTTL(10.0))

        def proc():
            yield cache.request("doc0")
            yield cache.request("doc0")

        sim.process(proc())
        sim.run()
        assert cache.stats.hits == 1
        assert origin.requests_served == 1

    def test_ims_after_expiry_not_modified(self):
        sim, origin, cache, rec = rig(FixedTTL(0.5))

        def proc():
            yield cache.request("doc0")
            yield sim.timeout(1.0)
            yield cache.request("doc0")

        sim.process(proc())
        sim.run()
        assert cache.stats.ims_sent == 1
        assert cache.stats.not_modified == 1

    def test_ims_after_modification_gets_new_body(self):
        sim, origin, cache, rec = rig(FixedTTL(0.5))
        boxes = []

        def proc():
            yield cache.request("doc0")
            yield sim.timeout(1.0)
            origin.install("doc0", "doc0#v1", sim.now)
            boxes.append(collect(cache.request("doc0")))
            yield sim.timeout(0.1)

        sim.process(proc())
        sim.run()
        assert boxes[0] == ["doc0#v1"]
        assert cache.stats.full_responses == 2

    def test_invalidation_flow(self):
        sim, origin, cache, rec = rig(ServerInvalidation())
        boxes = []

        def proc():
            yield cache.request("doc0")
            origin.install("doc0", "doc0#v1", sim.now)
            yield sim.timeout(0.1)  # invalidation arrives
            boxes.append(collect(cache.request("doc0")))
            yield sim.timeout(0.1)

        sim.process(proc())
        sim.run()
        assert cache.stats.invalidations_received == 1
        assert boxes[0] == ["doc0#v1"]
        assert origin.invalidations_sent == 1

    def test_writes_recorded_in_trace(self):
        sim, origin, cache, rec = rig(FixedTTL(1.0))
        origin.install("doc0", "doc0#v1", 1.0)
        h = rec.history()
        assert len(h.writes) == 2  # v0 materialized + v1

    def test_unknown_message_rejected(self):
        sim, origin, cache, rec = rig(FixedTTL(1.0))
        from repro.sim.network import Message

        with pytest.raises(ValueError):
            origin.on_message(Message(1, 0, "bogus"))
        with pytest.raises(ValueError):
            cache.on_message(Message(0, 1, "bogus"))


class TestPiggyback:
    def test_policy_flags(self):
        from repro.webcache import PiggybackTTL

        policy = PiggybackTTL(0.5)
        assert policy.piggyback and policy.max_batch > 0
        assert policy.effective_delta() == 0.5
        assert "Piggyback" in policy.name

    def test_batch_validation_refreshes_other_entries(self):
        from repro.webcache import PiggybackTTL

        sim, origin, cache, rec = rig(PiggybackTTL(0.5))

        def proc():
            yield cache.request("doc0")
            yield cache.request("doc1")
            yield sim.timeout(1.0)  # both expire
            # Requesting doc0 piggybacks doc1's validation.
            yield cache.request("doc0")
            yield cache.request("doc1")  # now a fresh hit

        sim.process(proc())
        sim.run()
        assert cache.stats.piggyback_validations >= 1
        assert cache.stats.hits == 1
        assert origin.requests_served == 3  # doc1's own trip was saved

    def test_piggyback_detects_changes(self):
        from repro.webcache import PiggybackTTL

        sim, origin, cache, rec = rig(PiggybackTTL(0.5))
        boxes = []

        def proc():
            yield cache.request("doc0")
            yield cache.request("doc1")
            yield sim.timeout(1.0)
            origin.install("doc1", "doc1#v1", sim.now)
            yield cache.request("doc0")  # piggyback learns doc1 changed
            boxes.append(collect(cache.request("doc1")))
            yield sim.timeout(0.1)

        sim.process(proc())
        sim.run()
        assert boxes[0] == ["doc1#v1"]

    def test_dominates_plain_ttl_on_load(self):
        from repro.webcache import FixedTTL, PiggybackTTL

        rows = compare_policies(
            [FixedTTL(0.5), PiggybackTTL(0.5)],
            n_caches=4, n_docs=15, requests_per_cache=100, seed=5,
        )
        plain, piggy = rows
        assert piggy["server_load"] < plain["server_load"]
        assert piggy["hit_ratio"] > plain["hit_ratio"]
        assert piggy["max_staleness"] <= 0.5 + 0.1  # same bound


class TestHarness:
    def test_staleness_respects_ttl_bound(self):
        result = run_web_experiment(
            FixedTTL(1.0), n_caches=3, n_docs=10, requests_per_cache=80, seed=2
        )
        stale = staleness_report(result.history)
        # Bound: TTL + network round trip slack.
        assert stale.maximum <= 1.0 + 0.1

    def test_polling_is_nearly_fresh(self):
        result = run_web_experiment(
            PollEveryTime(), n_caches=3, n_docs=10, requests_per_cache=80, seed=2
        )
        stale = staleness_report(result.history)
        assert stale.maximum <= 0.1  # one round trip

    def test_invalidation_low_server_load_and_fresh(self):
        rows = compare_policies(
            [PollEveryTime(), ServerInvalidation()],
            n_caches=3, n_docs=10, requests_per_cache=80, seed=2,
        )
        poll, inval = rows
        assert inval["server_load"] < poll["server_load"]
        assert inval["max_staleness"] <= 0.1

    def test_larger_ttl_trades_staleness_for_load(self):
        rows = compare_policies(
            [FixedTTL(0.2), FixedTTL(5.0)],
            n_caches=3, n_docs=10, requests_per_cache=80, seed=2,
        )
        small, big = rows
        assert big["hit_ratio"] > small["hit_ratio"]
        assert big["server_load"] < small["server_load"]
        assert big["mean_staleness"] >= small["mean_staleness"]

    def test_deterministic_for_seed(self):
        a = run_web_experiment(FixedTTL(1.0), n_caches=2, n_docs=5,
                               requests_per_cache=30, seed=7).row()
        b = run_web_experiment(FixedTTL(1.0), n_caches=2, n_docs=5,
                               requests_per_cache=30, seed=7).row()
        assert a == b

    def test_document_names(self):
        assert doc_name(5) == "doc5"

    def test_modification_model_validation(self):
        from repro.webcache.documents import ModificationProcess

        sim = Simulator()
        net = Network(sim)
        origin = OriginServer(0, sim, net)
        with pytest.raises(ValueError):
            ModificationProcess(sim, origin, 3, random.Random(0), model="bogus")
