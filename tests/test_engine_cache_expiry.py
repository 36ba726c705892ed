"""The omega-ordered expiry index of :class:`CacheEngine` against a
full-sweep oracle.

Rules 1-3 say "raise ``Context_i``, then demote every cached version
whose ending time fell behind it".  The engine finds those versions with
a lazily-pruned min-heap on omega; the oracle below is the literal scan
the paper describes (and the engine used to run).  The two must agree
step for step — same demotions at the same call, same counters — on
random rule sequences, the heap must stay bounded when ``Context_i``
never moves, and the engine's cost must not grow with the cache.

The causal engine cannot use the heap (vector omegas are only partially
ordered); it skips its scan when the scan would find nothing, and is
compared the same way against an oracle that scans on every install.
"""

import math
import random
import sys

import pytest

from repro.clocks.base import Ordering
from repro.clocks.plausible import REVClock
from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.engine import CacheEngine, CausalCacheEngine, StalenessAction
from repro.engine import cache as cache_module
from repro.engine.versions import LogicalVersion, PhysicalVersion


class SweepOracle(CacheEngine):
    """Rules 1-3 by scanning the whole cache; never consults the heap."""

    def rule3(self, now):
        loosest = max([self.delta, *self.delta_overrides.values()])
        if not math.isinf(loosest):
            self.advance_context(now - loosest)

    def advance_context(self, candidate):
        if candidate <= self.context:
            return
        self.context = candidate
        for obj, entry in list(self.cache.items()):
            if entry.version.omega < self.context and not entry.old:
                self._demote(obj, entry)


KEYS = [f"k{i}" for i in range(12)]
OVERRIDES = {"k0": 0.05, "k1": 5.0}  # one tighter, one looser than delta


def random_steps(seed, n_steps):
    """A seeded sequence of ``(method, args-factory)`` engine calls.

    Not a realistic execution: ending times land on both sides of the
    context, pushes carry stale and fresh start times, and invalidations
    hit absent keys — every branch of the rules, in arbitrary order.
    Versions are built per engine because the engines keep and mutate
    what they are handed.
    """
    rng = random.Random(seed)
    now = 1.0
    serial = 0
    for _ in range(n_steps):
        now += rng.choice([0.0, 0.001, 0.02, 0.2, 1.5])
        obj = rng.choice(KEYS)
        kind = rng.choice(
            ["rule3", "rule3", "lookup", "install", "still_valid",
             "write_ack", "push", "invalidate"]
        )
        if kind == "rule3":
            yield "rule3", lambda now=now: (now,)
        elif kind == "lookup":
            arm = rng.choice([now, None])
            yield "lookup", lambda obj=obj, arm=arm: (obj, arm)
        elif kind in ("install", "push"):
            serial += 1
            alpha = now - rng.choice([0.0, 0.01, 0.3, 2.0])
            omega = alpha + rng.random() * (now - alpha)
            method = "install_fetched" if kind == "install" else "apply_push"
            yield method, (
                lambda obj=obj, v=f"v{serial}", a=alpha, w=omega, now=now:
                (PhysicalVersion(obj, v, a, w, 7), now)
            )
        elif kind == "still_valid":
            omega = now - rng.choice([0.0, 0.01, 0.3, 2.0])
            yield "apply_still_valid", lambda obj=obj, w=omega: (obj, w)
        elif kind == "write_ack":
            serial += 1
            yield "apply_write_ack", (
                lambda obj=obj, v=f"v{serial}", now=now: (obj, v, now, now)
            )
        else:
            alpha = now - rng.choice([0.0, 0.3, 2.0])
            yield "apply_invalidate", lambda obj=obj, a=alpha: (obj, a)


def observable(engine):
    return (
        engine.context,
        {
            obj: (e.version.alpha, e.version.omega, e.version.value, e.old)
            for obj, e in engine.cache.items()
        },
        engine.stats.marked_old,
        engine.stats.invalidations,
        engine.stats.fetch_check_failures,
    )


class TestAgainstSweepOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("overrides", [None, OVERRIDES], ids=["plain", "overrides"])
    @pytest.mark.parametrize("delta", [0.3, math.inf], ids=["tsc", "sc"])
    @pytest.mark.parametrize("action", list(StalenessAction), ids=lambda a: a.value)
    def test_identical_after_every_step(self, action, delta, overrides, seed):
        config = dict(
            site_id=3, delta=delta, staleness_action=action, delta_overrides=overrides
        )
        engine, oracle = CacheEngine(**config), SweepOracle(**config)
        for step, (method, args) in enumerate(random_steps(seed, 500)):
            got = getattr(engine, method)(*args())
            want = getattr(oracle, method)(*args())
            assert repr(got) == repr(want), (step, method)
            assert observable(engine) == observable(oracle), (step, method)
            assert engine.snapshot_mutually_consistent()
            assert engine.usable_snapshot().keys() == oracle.usable_snapshot().keys()
        assert engine.stats == oracle.stats

    def test_the_sequences_exercise_both_demotion_paths(self):
        """Guard the generator: a run that never expired anything would
        make the comparison above vacuous."""
        for action, counter in [
            (StalenessAction.MARK_OLD, "marked_old"),
            (StalenessAction.INVALIDATE, "invalidations"),
        ]:
            engine = CacheEngine(delta=0.3, staleness_action=action)
            for method, args in random_steps(0, 500):
                getattr(engine, method)(*args())
            assert getattr(engine.stats, counter) > 50
            assert engine.stats.fetch_check_failures > 5


class TestHeapStaysBounded:
    @pytest.mark.parametrize("action", list(StalenessAction), ids=lambda a: a.value)
    def test_validate_invalidate_rounds_with_a_still_context(self, action):
        """delta = infinity and server invalidations: Context_i never
        passes the superseded records, so only the rebuild discards
        them."""
        keys = [f"k{i}" for i in range(16)]
        engine = CacheEngine(delta=math.inf, staleness_action=action)
        for obj in keys:
            engine.install_fetched(PhysicalVersion(obj, 0, 0.0, 0.0), 0.0)
        bound = 2 * len(keys) + 64
        worst = 0
        for n in range(1, 50_001):
            obj = keys[n % 16]
            engine.apply_invalidate(obj, alpha=float(n))
            if action is StalenessAction.MARK_OLD:
                assert engine.cache[obj].old
                engine.apply_still_valid(obj, omega=float(n))
            else:
                assert obj not in engine.cache
                engine.install_fetched(PhysicalVersion(obj, n, 0.0, float(n)), 0.0)
            assert not engine.cache[obj].old
            worst = max(worst, len(engine._expiry))
        assert len(engine.cache) == 16 and engine.context == 0.0
        assert 16 < worst <= bound

    def test_rebuild_keeps_every_entry_that_can_still_expire(self):
        engine = CacheEngine(delta=math.inf)
        for i in range(8):
            engine.install_fetched(PhysicalVersion(f"k{i}", 0, 0.0, float(i)), 0.0)
        for _ in range(200):  # > 2*8 + 64 pushes on one key: forces rebuilds
            engine.apply_still_valid("k7", omega=7.0)
        assert len(engine._expiry) <= 2 * 8 + 64
        engine.advance_context(6.5)
        assert [obj for obj, e in engine.cache.items() if e.old] == [
            f"k{i}" for i in range(7)
        ]
        assert engine.stats.marked_old == 7


def lines_per_validate_round(n_entries, rounds=2_000):
    """Line events in ``repro/engine/cache.py`` per round of (rule 3
    expires one entry, a STILL_VALID revives it) on a cache of
    ``n_entries``: the ``read_validate`` pattern with no transport."""
    step = 0.001
    engine = CacheEngine(delta=(n_entries - 0.5) * step)
    keys = [f"k{i}" for i in range(n_entries)]
    for i, obj in enumerate(keys):
        engine.install_fetched(PhysicalVersion(obj, i, 0.0, i * step), 0.0)
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    def tracer(frame, event, arg):
        return count if frame.f_code.co_filename == cache_module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for r in range(rounds):
            now = (n_entries + r) * step
            engine.rule3(now)
            engine.apply_still_valid(keys[r % n_entries], now)
    finally:
        sys.settrace(previous)
    assert engine.stats.marked_old == rounds  # every round expired exactly one
    return lines / rounds


def test_cost_of_the_rules_does_not_grow_with_the_cache():
    """16x the entries, the same Python lines per round: the rules touch
    the expiry heap (C code) and one entry, so an O(cache) scan in
    either would multiply the count.  Lines, not seconds, so a loaded
    host cannot fail it."""
    assert lines_per_validate_round(256) == lines_per_validate_round(4096)


class AlwaysSweepOracle(CausalCacheEngine):
    """The causal rule 1 with its sweep on every install."""

    def install_fetched(self, version, fetched_at):
        if version.omega.compare(self.context) is Ordering.BEFORE:
            self.stats.fetch_check_failures += 1
        self.vclock.merge(version.alpha)
        self.context = self.context.join(version.alpha)
        self.sweep()
        self._store(version, fetched_at)


class TestCausalSweep:
    """Vector omegas are only partially ordered, so the causal engine
    keeps its O(cache) sweep — but skips it when it would find nothing:
    the last one ran at this same context and no entry has since been
    made fresh behind it."""

    @staticmethod
    def build(engine_cls, clock, action=StalenessAction.MARK_OLD):
        if clock == "vector":
            vclock, zero = VectorClock(0, 3), VectorTimestamp.zero(3)
        else:
            vclock, zero = REVClock(0, 2), REVClock.zero(0, 2)
        return engine_cls(
            site_id=0, vclock=vclock, zero_timestamp=zero, staleness_action=action
        )

    @staticmethod
    def random_causal_steps(seed, clock, n_steps):
        """Seeded calls in arbitrary order; remote timestamps come from
        two other sites' clocks that occasionally hear of each other, so
        installs arrive covered by, concurrent with and ahead of the
        context, with ending times on either side of it."""
        rng = random.Random(seed)
        if clock == "vector":
            remotes = [VectorClock(1, 3), VectorClock(2, 3)]
        else:
            remotes = [REVClock(1, 2), REVClock(2, 2)]
        stamps = [r.tick() for r in remotes]
        for n in range(n_steps):
            obj = rng.choice(KEYS[:6])
            kind = rng.choice(
                ["install", "install", "push", "still_valid", "local_write",
                 "invalidate", "lookup"]
            )
            if rng.random() < 0.3:
                a, b = rng.sample(remotes, 2)
                a.receive(b.now())
            if rng.random() < 0.5:
                stamps.append(rng.choice(remotes).tick())
            alpha = rng.choice(stamps[-6:])
            omega = alpha.join(rng.choice(stamps[-6:]))
            if kind in ("install", "push"):
                method = "install_fetched" if kind == "install" else "apply_push"
                yield method, (
                    lambda obj=obj, n=n, a=alpha, w=omega:
                    (LogicalVersion(obj, n, alpha=a, omega=w, writer=1, beta=0.0), 0.0)
                )
            elif kind == "still_valid":
                yield "apply_still_valid", lambda obj=obj, w=omega: (obj, w, 0.0)
            elif kind == "local_write":
                yield "local_write", lambda obj=obj, n=n: (obj, f"w{n}", 0.0, 0.0)
            elif kind == "invalidate":
                yield "apply_invalidate", lambda obj=obj, a=alpha: (obj, a)
            else:
                yield "lookup", lambda obj=obj: (obj,)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("action", list(StalenessAction), ids=lambda a: a.value)
    @pytest.mark.parametrize("clock", ["vector", "rev"])
    def test_identical_to_sweeping_on_every_install(self, clock, action, seed):
        engine = self.build(CausalCacheEngine, clock, action)
        oracle = self.build(AlwaysSweepOracle, clock, action)
        for step, (method, args) in enumerate(self.random_causal_steps(seed, clock, 400)):
            got = getattr(engine, method)(*args())
            want = getattr(oracle, method)(*args())
            assert repr(got) == repr(want), (step, method)
            assert observable(engine) == observable(oracle), (step, method)
            assert engine.vclock.now() == oracle.vclock.now()
        assert engine.stats == oracle.stats
        assert engine.stats.marked_old + engine.stats.invalidations > 10

    def test_sweep_is_skipped_only_when_it_would_find_nothing(self):
        sweeps = []

        class Counting(CausalCacheEngine):
            def sweep(self):
                sweeps.append(self.context)
                super().sweep()

        engine = self.build(Counting, "vector")

        def install(obj, alpha, omega):
            engine.install_fetched(
                LogicalVersion(
                    obj, 1, alpha=VectorTimestamp(alpha), omega=VectorTimestamp(omega)
                ),
                0.0,
            )

        install("A", (0, 1, 0), (0, 1, 0))
        assert len(sweeps) == 1
        install("B", (0, 1, 0), (0, 1, 0))  # same start time: context unchanged
        assert len(sweeps) == 1 and set(engine.cache) == {"A", "B"}
        install("C", (0, 3, 0), (0, 3, 0))  # context moves past A and B
        assert len(sweeps) == 2
        assert engine.cache["A"].old and engine.cache["B"].old
        assert engine.stats.marked_old == 2
        install("D", (0, 2, 0), (0, 2, 0))  # covered, but stored behind the context
        assert len(sweeps) == 2 and not engine.cache["D"].old
        install("E", (0, 1, 0), (0, 3, 0))  # context unchanged, yet D must go
        assert len(sweeps) == 3 and engine.cache["D"].old
        engine.local_write("F", "w", 0.0, 0.0)  # moves the context, no sweep
        install("G", (0, 1, 0), (1, 3, 0))
        assert len(sweeps) == 4
