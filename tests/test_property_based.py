"""Property-based tests (hypothesis) on the core invariants.

The invariants covered:

* vector timestamps form a lattice and comparison is consistent with it;
* ``compare_physical`` is antisymmetric and epsilon-monotone;
* xi maps satisfy Definition 5 on arbitrary timestamp sets;
* ``min_timed_delta`` is exactly the timedness threshold;
* the Figure 4a hierarchy holds on arbitrary generated histories;
* a checker witness is always a legal, order-respecting serialization;
* TSC/TCC are monotone in delta and anti-monotone in epsilon.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import check_cc, check_sc, check_tcc, check_tsc, classify, hierarchy_violations
from repro.clocks.base import Ordering, compare_physical
from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import EuclideanXi, SumXi, validate_xi
from repro.core.history import History
from repro.core.operations import read, write
from repro.core.serialization import is_legal, respects_program_order
from repro.core.timed import late_reads, min_timed_delta
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_replica_history,
    random_sc_history,
)
from tests.search_reference import check_cc_reference, check_sc_reference

#: The (x vs y, y vs x) pairs an antisymmetric comparison may give.
MIRRORED = {
    (Ordering.BEFORE, Ordering.AFTER), (Ordering.AFTER, Ordering.BEFORE),
    (Ordering.EQUAL, Ordering.EQUAL), (Ordering.CONCURRENT, Ordering.CONCURRENT),
}

vectors = st.lists(st.integers(0, 40), min_size=3, max_size=3).map(VectorTimestamp)


class TestVectorLattice:
    @given(vectors, vectors)
    def test_join_is_least_upper_bound(self, a, b):
        j = a.join(b)
        assert a.compare(j) in (Ordering.BEFORE, Ordering.EQUAL)
        assert b.compare(j) in (Ordering.BEFORE, Ordering.EQUAL)

    @given(vectors, vectors)
    def test_meet_is_greatest_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.compare(a) in (Ordering.BEFORE, Ordering.EQUAL)
        assert m.compare(b) in (Ordering.BEFORE, Ordering.EQUAL)

    @given(vectors, vectors)
    def test_compare_antisymmetric(self, a, b):
        assert (a.compare(b), b.compare(a)) in MIRRORED

    @given(vectors, vectors, vectors)
    def test_join_associative(self, a, b, c):
        assert a.join(b.join(c)) == a.join(b).join(c)

    @given(vectors, vectors)
    def test_absorption(self, a, b):
        assert a.join(a.meet(b)) == a
        assert a.meet(a.join(b)) == a

    @given(vectors, vectors, vectors)
    def test_compare_transitive_on_before(self, a, b, c):
        if (
            a.compare(b) is Ordering.BEFORE
            and b.compare(c) is Ordering.BEFORE
        ):
            assert a.compare(c) is Ordering.BEFORE


class TestComparePhysical:
    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(0, 1e3),
    )
    def test_antisymmetric(self, a, b, eps):
        assert (compare_physical(a, b, eps), compare_physical(b, a, eps)) in MIRRORED

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_zero_epsilon_total(self, a, b):
        verdict = compare_physical(a, b, 0.0)
        assert verdict is not Ordering.CONCURRENT

    @given(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(0, 10),
        st.floats(0, 10),
    )
    def test_larger_epsilon_never_creates_order(self, a, b, e1, e2):
        lo, hi = sorted((e1, e2))
        if compare_physical(a, b, hi) is Ordering.BEFORE:
            assert compare_physical(a, b, lo) is Ordering.BEFORE


class TestXiProperties:
    @given(st.lists(vectors, min_size=2, max_size=8))
    def test_sum_xi_definition5(self, stamps):
        assert validate_xi(SumXi(), stamps) is None

    @given(st.lists(vectors, min_size=2, max_size=8))
    def test_euclidean_xi_definition5(self, stamps):
        assert validate_xi(EuclideanXi(), stamps) is None


HISTORY_GENERATORS = [
    random_linearizable_history,
    random_sc_history,
    random_replica_history,
    random_history,
]

history_strategy = st.builds(
    lambda seed, kind: HISTORY_GENERATORS[kind](random.Random(seed)),
    st.integers(0, 10_000),
    st.integers(0, 3),
)


class TestTimednessThreshold:
    @given(history_strategy)
    @settings(max_examples=40, deadline=None)
    def test_min_timed_delta_is_the_threshold(self, history):
        thr = min_timed_delta(history)
        assert not late_reads(history, thr)
        if thr > 0:
            assert late_reads(history, thr * 0.99 - 1e-9)

    @given(history_strategy, st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_on_time_monotone_in_delta(self, history, d1, d2):
        lo, hi = sorted((d1, d2))
        if not late_reads(history, lo):
            assert not late_reads(history, hi)

    @given(history_strategy, st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_on_time_monotone_in_epsilon(self, history, e1, e2):
        lo, hi = sorted((e1, e2))
        if not late_reads(history, 1.0, epsilon=lo):
            assert not late_reads(history, 1.0, epsilon=hi)


class TestHierarchyProperty:
    @given(history_strategy, st.floats(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_hierarchy_always_holds(self, history, delta):
        cls = classify(history, delta)
        assert hierarchy_violations(cls) == []

    @given(history_strategy)
    @settings(max_examples=25, deadline=None)
    def test_tsc_monotone_in_delta(self, history):
        thr = min_timed_delta(history)
        if check_tsc(history, thr).satisfied:
            assert check_tsc(history, thr * 2 + 1.0).satisfied
            assert check_tsc(history, math.inf).satisfied


class TestWitnessValidity:
    @given(history_strategy)
    @settings(max_examples=30, deadline=None)
    def test_sc_witness_is_valid(self, history):
        result = check_sc(history)
        if result.satisfied:
            assert is_legal(result.witness, history.initial_value)
            assert respects_program_order(result.witness)
            assert len(result.witness) == len(history)

    @given(history_strategy)
    @settings(max_examples=20, deadline=None)
    def test_cc_witnesses_are_valid(self, history):
        result = check_cc(history)
        if result.satisfied:
            pairs = history.causal_pairs()
            from repro.core.serialization import respects

            for site, witness in result.site_witnesses.items():
                assert is_legal(witness, history.initial_value)
                assert respects(witness, pairs)


class TestGeneratedHistoryClasses:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_linearizable_generator_is_lin(self, seed):
        from repro.checkers import check_lin

        h = random_linearizable_history(random.Random(seed))
        assert check_lin(h).satisfied

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sc_generator_is_sc(self, seed):
        h = random_sc_history(random.Random(seed))
        assert check_sc(h).satisfied

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_replica_generator_is_cc(self, seed):
        h = random_replica_history(random.Random(seed))
        assert check_cc(h).satisfied


class TestCheckerEngineEquivalence:
    """The checkers against the recursive reference search."""

    @given(st.integers(0, 10_000), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_constraint_equals_search(self, seed, kind):
        h = HISTORY_GENERATORS[kind](random.Random(seed))
        assert check_sc(h).satisfied == check_sc_reference(h).satisfied
        assert check_cc(h).satisfied == check_cc_reference(h).satisfied


class TestTccDeltaInfEqualsCc:
    @given(st.integers(0, 10_000), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_endpoints(self, seed, kind):
        h = HISTORY_GENERATORS[kind](random.Random(seed))
        assert check_tsc(h, math.inf).satisfied == check_sc(h).satisfied
        assert check_tcc(h, math.inf).satisfied == check_cc(h).satisfied


class TestWebcacheProperties:
    """The TTL staleness bound holds for arbitrary TTLs and seeds."""

    @given(st.floats(0.1, 3.0), st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_ttl_bound(self, ttl, seed):
        from repro.analysis.metrics import staleness_report
        from repro.webcache import FixedTTL, run_web_experiment

        result = run_web_experiment(
            FixedTTL(ttl), n_caches=2, n_docs=6, requests_per_cache=40,
            seed=seed,
        )
        assert staleness_report(result.history).maximum <= ttl + 0.1

    @given(st.floats(0.1, 2.0), st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_piggyback_never_hurts_server_load(self, ttl, seed):
        from repro.webcache import FixedTTL, PiggybackTTL, run_web_experiment

        plain = run_web_experiment(
            FixedTTL(ttl), n_caches=2, n_docs=6, requests_per_cache=40,
            seed=seed,
        )
        piggy = run_web_experiment(
            PiggybackTTL(ttl), n_caches=2, n_docs=6, requests_per_cache=40,
            seed=seed,
        )
        assert piggy.origin_requests <= plain.origin_requests


class TestBroadcastProperties:
    """Delta-causal broadcast invariants under random configurations."""

    @given(
        st.integers(0, 1_000),
        st.floats(0.02, 2.0),
        st.floats(0.0, 0.3),
        st.integers(2, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_no_violations_and_latency_bound(self, seed, delta, drop, n):
        from repro.broadcast import run_broadcast_experiment

        experiment = run_broadcast_experiment(
            delta,
            n_processes=n,
            messages_per_process=12,
            seed=seed,
            drop_probability=drop,
        )
        assert experiment.violations == 0
        assert all(lat <= delta + 1e-9 for lat in experiment.latencies)
        # Everything a process sends is delivered locally at least.
        assert experiment.stats.delivered >= experiment.stats.sent
