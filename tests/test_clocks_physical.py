"""Tests for physical clocks and the Section 3.2 comparison rules."""

import pytest

from repro.clocks.base import Ordering, compare_physical
from repro.clocks.physical import (
    DriftingClock,
    ManualTime,
    PerfectClock,
    SynchronizedClock,
    TimeServer,
)


class TestComparePhysical:
    def test_exact_order_with_zero_epsilon(self):
        assert compare_physical(1.0, 2.0) is Ordering.BEFORE
        assert compare_physical(2.0, 1.0) is Ordering.AFTER
        assert compare_physical(1.0, 1.0) is Ordering.EQUAL

    def test_epsilon_makes_close_times_concurrent(self):
        assert compare_physical(1.0, 1.5, epsilon=1.0) is Ordering.CONCURRENT
        assert compare_physical(1.0, 2.5, epsilon=1.0) is Ordering.BEFORE

    def test_definitely_before_needs_a_strict_margin(self):
        # a definitely before b iff T(a) + epsilon < T(b)
        assert compare_physical(1.0, 2.0, epsilon=1.0) is Ordering.CONCURRENT
        assert compare_physical(1.0, 2.001, epsilon=1.0) is Ordering.BEFORE

    def test_swapping_the_arguments_mirrors_the_ordering(self):
        assert compare_physical(2.5, 1.0, epsilon=1.0) is Ordering.AFTER
        assert compare_physical(1.5, 1.0, epsilon=1.0) is Ordering.CONCURRENT
        assert compare_physical(2.0, 1.0) is Ordering.AFTER

    def test_equal_times_with_epsilon_are_equal(self):
        assert compare_physical(3.0, 3.0, epsilon=1.0) is Ordering.EQUAL

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            compare_physical(1.0, 2.0, epsilon=-0.1)


class TestManualTime:
    def test_advance(self):
        t = ManualTime()
        assert t() == 0.0
        t.advance(2.5)
        assert t() == 2.5

    def test_backwards_rejected(self):
        t = ManualTime(5.0)
        with pytest.raises(ValueError):
            t.advance(-1.0)
        with pytest.raises(ValueError):
            t.set(4.0)


class TestClockModels:
    def test_perfect_clock_reads_true_time(self):
        t = ManualTime(3.0)
        clock = PerfectClock(t)
        assert clock.now() == 3.0
        assert clock.epsilon_bound == 0.0

    def test_drifting_clock_grows_linearly(self):
        t = ManualTime()
        clock = DriftingClock(t, drift=0.1)
        t.advance(10.0)
        assert clock.now() == pytest.approx(11.0)

    def test_drifting_clock_offset_counts_in_its_bound(self):
        t = ManualTime(10.0)
        clock = DriftingClock(t, offset=0.5)
        assert clock.now() == 10.5
        assert clock.epsilon_bound == 1.0
        assert clock.real_time() == 10.0

    def test_drifting_clock_set_to(self):
        t = ManualTime()
        clock = DriftingClock(t, drift=0.1)
        t.advance(10.0)
        clock.set_to(10.0)
        assert clock.now() == pytest.approx(10.0)
        t.advance(1.0)
        assert clock.now() == pytest.approx(11.0 + 0.1)


class TestTimeServer:
    def test_zero_error_reads_exact(self):
        t = ManualTime(7.0)
        server = TimeServer(t, max_error=0.0)
        assert server.read() == 7.0

    def test_bounded_error(self):
        t = ManualTime(7.0)
        server = TimeServer(t, max_error=0.25, seed=3)
        for _ in range(50):
            assert abs(server.read() - 7.0) <= 0.25

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            TimeServer(ManualTime(), max_error=-1.0)


class TestSynchronizedClock:
    def test_stays_within_bound(self):
        t = ManualTime()
        server = TimeServer(t, max_error=0.05, seed=1)
        clock = SynchronizedClock(
            t, server, drift=0.02, offset=0.04, sync_interval=1.0
        )
        worst = 0.0
        for _ in range(200):
            t.advance(0.25)
            worst = max(worst, abs(clock.now() - t()))
        assert worst <= clock.epsilon_bound / 2.0 + 1e-9

    def test_sync_counter_increments(self):
        t = ManualTime()
        server = TimeServer(t, max_error=0.0)
        clock = SynchronizedClock(t, server, drift=0.01, sync_interval=1.0)
        t.advance(5.0)
        clock.now()
        assert clock.sync_count >= 1

    def test_maybe_sync_waits_for_the_interval(self):
        t = ManualTime()
        clock = SynchronizedClock(t, TimeServer(t), offset=0.3, sync_interval=1.0)
        t.advance(0.5)
        assert not clock.maybe_sync()
        assert clock.now() == pytest.approx(0.8)
        t.advance(0.5)
        assert clock.maybe_sync()
        assert clock.now() == pytest.approx(1.0)
        assert not clock.maybe_sync()
        assert clock.sync_count == 1

    def test_epsilon_bound_is_twice_error_plus_drift_per_interval(self):
        t = ManualTime()
        server = TimeServer(t, max_error=0.05)
        clock = SynchronizedClock(t, server, drift=-0.02, sync_interval=2.0)
        assert clock.epsilon_bound == pytest.approx(2 * (0.05 + 0.02 * 2.0))

    def test_invalid_interval_rejected(self):
        t = ManualTime()
        server = TimeServer(t)
        with pytest.raises(ValueError):
            SynchronizedClock(t, server, sync_interval=0.0)
