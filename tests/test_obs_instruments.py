"""The timed-consistency instruments: visibility lag and the online
on-time ratio (cross-validated against the offline judge)."""

import math
import random

import pytest

from repro.core.history import History
from repro.core.operations import read, write
from repro.core.timed import late_reads, min_timed_delta
from repro.obs.instruments import (
    OnTimeRatio,
    TimedInstruments,
    VisibilityLag,
)
from repro.obs.metrics import Registry


class TestVisibilityLag:
    def test_default_rule_flags_lag_beyond_delta_plus_epsilon(self):
        reg = Registry()
        lag = VisibilityLag(reg, delta=0.5, epsilon=0.1)
        lag.observe(0.55)  # within delta + epsilon
        lag.observe(0.65)  # beyond
        assert lag.violations.value == 1
        assert lag.histogram._default.count == 2

    def test_infinite_delta_never_violates(self):
        lag = VisibilityLag(Registry(), delta=math.inf)
        lag.observe(1e9)
        assert lag.violations.value == 0

    def test_explicit_verdict_overrides_the_rule(self):
        lag = VisibilityLag(Registry(), delta=0.5)
        lag.observe(10.0, violated=False)
        lag.observe(0.01, violated=True)
        assert lag.violations.value == 1

    def test_negative_lag_clamped(self):
        lag = VisibilityLag(Registry(), delta=0.5)
        lag.observe(-0.2)  # clock-precision artifact
        assert lag.histogram._default.sum == 0.0

    def test_parameter_gauges_exported(self):
        reg = Registry()
        VisibilityLag(reg, delta=0.5, epsilon=0.05)
        assert reg.get("repro_visibility_delta_seconds").value == 0.5
        assert reg.get("repro_visibility_epsilon_seconds").value == 0.05


class TestOnTimeRatio:
    def test_fresh_read_is_on_time(self):
        ot = OnTimeRatio(Registry(), delta=0.5)
        ot.observe_write("x", 1, 1.0)
        verdict = ot.observe_read("x", 1, 1.1)
        assert verdict.on_time is True
        assert verdict.lag == pytest.approx(0.1)
        assert ot.ratio == 1.0

    def test_stale_read_is_late(self):
        ot = OnTimeRatio(Registry(), delta=0.5)
        ot.observe_write("x", 1, 1.0)
        ot.observe_write("x", 2, 2.0)
        # Read of the old value at t=3: the newer write is 1.0s in the
        # past, beyond delta=0.5.
        verdict = ot.observe_read("x", 1, 3.0)
        assert verdict.on_time is False
        assert verdict.required_delta == pytest.approx(1.0)
        assert ot.counts["late"] == 1
        assert ot.ratio == 0.0

    def test_epsilon_excuses_borderline_reads(self):
        # Definition 2: with epsilon the same read can be on time.
        late = OnTimeRatio(Registry(), delta=0.5, epsilon=0.0)
        late.observe_write("x", 1, 1.0)
        late.observe_write("x", 2, 2.0)
        assert late.observe_read("x", 1, 2.6).on_time is False
        ok = OnTimeRatio(Registry(), delta=0.5, epsilon=0.2)
        ok.observe_write("x", 1, 1.0)
        ok.observe_write("x", 2, 2.0)
        assert ok.observe_read("x", 1, 2.6).on_time is True

    def test_initial_value_read_judged_against_all_writes(self):
        ot = OnTimeRatio(Registry(), delta=0.5, initial_value=0)
        assert ot.observe_read("x", 0, 1.0).on_time is True
        ot.observe_write("x", 7, 2.0)
        assert ot.observe_read("x", 0, 10.0).on_time is False

    def test_window_eviction_yields_unjudged_not_wrong(self):
        ot = OnTimeRatio(Registry(), delta=100.0, window=2)
        ot.observe_write("x", 1, 1.0)
        ot.observe_write("x", 2, 2.0)
        ot.observe_write("x", 3, 3.0)  # evicts value 1
        verdict = ot.observe_read("x", 1, 3.5)
        assert verdict.on_time is None
        assert ot.counts["unjudged"] == 1
        # Judged reads are unaffected; the ratio ignores unjudged.
        assert ot.observe_read("x", 3, 3.6).on_time is True
        assert ot.ratio == 1.0

    def test_evicted_writer_still_provably_late(self):
        ot = OnTimeRatio(Registry(), delta=0.5, window=2)
        ot.observe_write("x", 1, 1.0)
        ot.observe_write("x", 2, 2.0)
        ot.observe_write("x", 3, 3.0)  # evicts value 1
        # Retained write at 2.0 is older than the cutoff 10 - 0.5: the
        # read is late no matter what was evicted.
        verdict = ot.observe_read("x", 1, 10.0)
        assert verdict.on_time is False

    def test_out_of_order_write_arrival_kept_sorted(self):
        ot = OnTimeRatio(Registry(), delta=0.5)
        ot.observe_write("x", 2, 2.0)
        ot.observe_write("x", 1, 1.0)  # completion order != time order
        assert ot.observe_read("x", 1, 3.0).on_time is False
        assert ot.observe_read("x", 2, 2.1).on_time is True

    def test_cross_validates_against_offline_monitor(self):
        # Random unique-value histories, window large enough to retain
        # everything: the online judgement must match the offline
        # Definition 1/2 judge of repro.core.timed read for read,
        # including the running threshold.
        for seed in range(8):
            rng = random.Random(seed)
            delta = rng.choice([0.05, 0.2, 1.0])
            epsilon = rng.choice([0.0, 0.05])
            objects = ["x", "y"]
            ot = OnTimeRatio(Registry(), delta, epsilon, window=256)
            written = {obj: [0] for obj in objects}
            ops, online_late = [], set()
            t = 0.0
            value = iter(range(1, 10_000))
            for _ in range(120):
                t += rng.uniform(0.0, 0.3)
                obj = rng.choice(objects)
                if rng.random() < 0.4:
                    v = next(value)
                    ops.append(write(0, obj, v, t))
                    ot.observe_write(obj, v, t)
                    written[obj].append(v)
                else:
                    v = rng.choice(written[obj][-4:])
                    ops.append(read(0, obj, v, t))
                    if not ot.observe_read(obj, v, t).on_time:
                        online_late.add(ops[-1])
            history = History(ops)
            offline_late = late_reads(history, delta, epsilon)
            assert online_late == set(offline_late), seed
            assert ot.counts["unjudged"] == 0
            assert ot.required_delta == pytest.approx(
                min_timed_delta(history, epsilon)
            )
            judged = ot.counts["on_time"] + ot.counts["late"]
            assert judged == len(history.reads)
            assert ot.counts["late"] == len(offline_late)


class TestTimedInstruments:
    def test_bundle_feeds_all_three(self):
        reg = Registry()
        inst = TimedInstruments(reg, delta=0.5)
        inst.on_write("x", 1, 1.0)
        inst.on_write("x", 2, 2.0)
        assert inst.on_read("x", 2, 2.1).on_time is True
        assert inst.on_read("x", 1, 3.0).on_time is False
        summary = inst.summary()
        assert summary["reads_on_time"] == 1
        assert summary["reads_late"] == 1
        assert summary["writes"] == 2
        assert summary["violations"] == 1
        assert 0.0 <= summary["ontime_ratio"] <= 1.0

    def test_a_read_waits_for_its_writer(self):
        # Completion order: the read of 2 is recorded before the write
        # of 2, whose ack came later.  It is judged when the write
        # arrives, at its own time, against every write seen by then.
        inst = TimedInstruments(Registry(), delta=0.5)
        inst.on_write("x", 1, 1.0)
        assert inst.on_read("x", 2, 2.1) is None
        assert inst.ontime.counts["on_time"] == 0
        inst.on_write("x", 2, 2.0)
        assert inst.summary()["reads_on_time"] == 1
        # Reads of the initial value and of known writes never wait.
        assert inst.on_read("y", 0, 2.2).on_time is True
        assert inst.on_read("x", 1, 3.0).on_time is False

    def test_a_read_whose_writer_never_arrives_is_never_judged(self):
        inst = TimedInstruments(Registry(), delta=0.5)
        assert inst.on_read("x", "lost", 1.0) is None
        summary = inst.summary()
        assert (summary["reads_on_time"], summary["reads_late"],
                summary["reads_unjudged"]) == (0, 0, 0)

    def test_epsilon_settable_after_handshake(self):
        inst = TimedInstruments(Registry(), delta=0.5)
        inst.epsilon = 0.25
        assert inst.ontime.epsilon == 0.25
        assert inst.visibility.epsilon == 0.25
        with pytest.raises(ValueError):
            inst.epsilon = -1.0
