"""Unit tests for repro.core.timed — reading on time (Definitions 1, 2, 6)."""

import math

import pytest

from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import SumXi
from repro.core.history import History
from repro.core.operations import read, write
from repro.core.timed import (
    is_timed_serialization,
    late_reads,
    min_timed_delta,
    min_timed_delta_logical,
    read_occurs_on_time,
    required_delta,
    w_r_set,
    w_r_set_logical,
)


def figure2_history():
    """w1@20, w@60, w2@100, w3@140, w4@170, r(w)@200 — delta 40."""
    return History(
        [
            write(0, "X", "v1", 20.0),
            write(1, "X", "v", 60.0),
            write(2, "X", "v2", 100.0),
            write(3, "X", "v3", 140.0),
            write(4, "X", "v4", 170.0),
            read(5, "X", "v", 200.0),
        ],
        initial_value=None,
    )


class TestDefinition1:
    def test_w_r_contains_exactly_w2_w3(self):
        h = figure2_history()
        r = h.reads[0]
        missed = {w.value for w in w_r_set(h, r, 40.0)}
        assert missed == {"v2", "v3"}

    def test_older_write_not_in_w_r(self):
        h = figure2_history()
        r = h.reads[0]
        assert "v1" not in {w.value for w in w_r_set(h, r, 40.0)}

    def test_too_recent_write_not_in_w_r(self):
        h = figure2_history()
        r = h.reads[0]
        assert "v4" not in {w.value for w in w_r_set(h, r, 40.0)}

    def test_strictness_of_window(self):
        # w' exactly at T(r) - delta is NOT in W_r (strict <).
        h = History(
            [
                write(0, "X", "a", 0.0),
                write(1, "X", "b", 60.0),
                read(2, "X", "a", 100.0),
            ],
            initial_value=None,
        )
        r = h.reads[0]
        assert w_r_set(h, r, 40.0) == []
        # A slightly smaller delta moves the cutoff past the write.
        assert len(w_r_set(h, r, 40.0 - 1e-9)) == 1

    def test_on_time_predicate(self):
        h = figure2_history()
        r = h.reads[0]
        assert not read_occurs_on_time(h, r, 40.0)
        assert read_occurs_on_time(h, r, 101.0)

    def test_initial_value_read_uses_virtual_old_write(self):
        h = History(
            [
                write(0, "X", 1, 50.0),
                read(1, "X", 0, 200.0),
            ]
        )
        r = h.reads[0]
        # The write at 50 is over delta=100 old at T=200: late.
        assert not read_occurs_on_time(h, r, 100.0)
        assert read_occurs_on_time(h, r, 151.0)

    def test_rejects_write_argument(self):
        h = figure2_history()
        with pytest.raises(ValueError):
            w_r_set(h, h.writes[0], 40.0)

    def test_rejects_negative_delta(self):
        h = figure2_history()
        with pytest.raises(ValueError):
            w_r_set(h, h.reads[0], -1.0)

    def test_rejects_negative_epsilon(self):
        h = figure2_history()
        with pytest.raises(ValueError):
            w_r_set(h, h.reads[0], 1.0, epsilon=-0.5)


class TestDefinition2:
    def test_epsilon_shrinks_window(self):
        h = figure2_history()
        r = h.reads[0]
        # Figure 3: epsilon = 40 makes w/w2 concurrent and w3/cutoff
        # concurrent, so W_r empties out.
        assert w_r_set(h, r, 40.0, epsilon=40.0) == []
        assert read_occurs_on_time(h, r, 40.0, epsilon=40.0)

    def test_epsilon_zero_reduces_to_definition1(self):
        h = figure2_history()
        r = h.reads[0]
        assert w_r_set(h, r, 40.0, epsilon=0.0) == w_r_set(h, r, 40.0)

    def test_partial_epsilon(self):
        h = figure2_history()
        r = h.reads[0]
        # epsilon = 25: w@60+25 < w2@100 still in, w3: 140+25 >= 160 out.
        missed = {w.value for w in w_r_set(h, r, 40.0, epsilon=25.0)}
        assert missed == {"v2"}


class TestLateReads:
    def test_late_reads_lists_only_late(self):
        h = figure2_history()
        assert [r.value for r in late_reads(h, 40.0)] == ["v"]
        assert late_reads(h, 200.0) == []


    def test_late_reads_rejects_negative_bounds(self):
        h = figure2_history()
        with pytest.raises(ValueError):
            late_reads(h, -1.0)
        with pytest.raises(ValueError):
            late_reads(h, 1.0, epsilon=-0.1)


class TestRequiredDelta:
    def test_late_iff_the_bound_exceeds_delta(self):
        # w@1 read at 10 while w'@4 exists: on time iff 10 - 4 <= delta.
        assert required_delta(10.0, 1.0, [4.0]) == 6.0

    def test_the_earliest_newer_write_sets_the_bound(self):
        assert required_delta(10.0, 1.0, [4.0, 2.0, 8.0]) == 8.0

    def test_the_writers_own_time_never_counts(self):
        assert required_delta(10.0, 1.0, [1.0]) == 0.0

    def test_epsilon_shrinks_the_bound_from_both_sides(self):
        # T(w) + eps < T(w') excludes 1.5; 4.0 gives 10 - 4 - 0.5.
        assert required_delta(10.0, 1.0, [1.5, 4.0], epsilon=0.5) == 5.5

    def test_initial_value_reader_is_bounded_by_the_first_write(self):
        assert required_delta(10.0, -math.inf, [3.0]) == 7.0
        assert required_delta(10.0, -math.inf, []) == 0.0


class TestTimedSerialization:
    def test_sequence_timedness_follows_reads_from(self):
        h = figure2_history()
        by_value = {op.value: op for op in h.writes}
        r = h.reads[0]
        # A legal serialization in which r reads w: the other writes are
        # serialized before w.  Timedness still judges W_r by effective
        # times, so w2/w3 make the read late for delta = 40.
        seq = [
            by_value["v1"], by_value["v2"], by_value["v3"], by_value["v4"],
            by_value["v"], r,
        ]
        assert not is_timed_serialization(h, seq, 40.0)
        assert is_timed_serialization(h, seq, 150.0)

    def test_time_sorted_sequence_reader_takes_writer_from_sequence(self):
        # In the time-sorted order the read returns v4's position, which
        # (being the newest) is trivially on time — timedness of a
        # serialization depends on who the read reads from *in it*.
        h = figure2_history()
        seq = sorted(h.operations, key=lambda op: op.time)
        assert is_timed_serialization(h, seq, 40.0)


class TestMinTimedDelta:
    def test_threshold_boundary(self):
        h = figure2_history()
        thr = min_timed_delta(h)
        # Worst miss: w2@100 vs r@200 -> 100.
        assert thr == pytest.approx(100.0)
        assert not late_reads(h, thr)
        assert late_reads(h, thr - 1e-6)

    def test_zero_when_always_fresh(self):
        h = History([write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)])
        assert min_timed_delta(h) == 0.0

    def test_epsilon_lowers_threshold(self):
        h = figure2_history()
        assert min_timed_delta(h, epsilon=25.0) < min_timed_delta(h)


def logical_history():
    """Two writers and a reader with vector timestamps."""
    w1 = write(0, "X", "a", 1.0, ltime=VectorTimestamp((1, 0, 0)))
    w2 = write(1, "X", "b", 2.0, ltime=VectorTimestamp((1, 1, 0)))
    r = read(2, "X", "a", 3.0, ltime=VectorTimestamp((1, 1, 5)))
    return History([w1, w2, r], initial_value=None)


class TestDefinition6:
    def test_w_r_logical(self):
        h = logical_history()
        r = h.reads[0]
        xi = SumXi()
        # xi(w1)=1, xi(w2)=2, xi(r)=7: with delta=4, cutoff 3 > 2 -> late.
        assert [w.value for w in w_r_set_logical(h, r, 4.0, xi)] == ["b"]
        # delta=6: cutoff 1, nothing between -> on time.
        assert w_r_set_logical(h, r, 6.0, xi) == []

    def test_every_logical_read_on_time_from_delta_5(self):
        h = logical_history()
        xi = SumXi()
        assert any(w_r_set_logical(h, r, 4.0, xi) for r in h.reads)
        assert not any(w_r_set_logical(h, r, 5.0, xi) for r in h.reads)

    def test_min_timed_delta_logical(self):
        h = logical_history()
        xi = SumXi()
        assert min_timed_delta_logical(h, xi) == pytest.approx(5.0)

    def test_missing_ltime_rejected(self):
        h = History(
            [write(0, "X", "a", 1.0), read(1, "X", "a", 2.0)],
            initial_value=None,
        )
        with pytest.raises(ValueError):
            w_r_set_logical(h, h.reads[0], 1.0, SumXi())
