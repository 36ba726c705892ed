"""Boundary cases of the Definition 1/2 check, online and offline.

Two regimes the satellite tasks call out:

* two writes within ``epsilon`` of each other — Definition 2 cannot tell
  which came first, so the older value is excused (``t_w + epsilon <
  T(w')`` fails) and the read is on time at *any* delta;
* a read exactly at ``T(w') + delta`` — ``W_r`` uses the strict
  inequality ``T(w') < T(r) - delta``, so the boundary read is on time
  and the required delta equals the gap exactly.

Both are checked against the live judge (``OnTimeRatio``), the offline
one (``repro.core.timed``) *and* the offline TSC checker, which must
agree.
"""

import math
from typing import List, NamedTuple, Optional

import pytest

from repro.checkers import check_tsc
from repro.core.history import History
from repro.core.operations import Operation, read, write
from repro.core.timed import min_timed_delta, w_r_set
from repro.obs.instruments import OnTimeRatio
from repro.obs.metrics import Registry


class Verdict(NamedTuple):
    """The live verdict on the stream's last read, with its offline W_r."""

    on_time: Optional[bool]
    required_delta: float
    missed: List[Operation]


def verdict_for(ops, delta, epsilon=0.0):
    """Feed ops (already effective-time-ordered) to the live judge;
    return it and its verdict on the last read, which must agree with
    the offline W_r."""
    live = OnTimeRatio(Registry(), delta, epsilon)
    verdict = None
    for op in ops:
        if op.is_write:
            live.observe_write(op.obj, op.value, op.time)
        else:
            verdict = live.observe_read(op.obj, op.value, op.time)
    assert verdict is not None, "stream contained no read"
    missed = w_r_set(History(ops), ops[-1], delta, epsilon)
    assert verdict.on_time == (not missed)
    return live, Verdict(verdict.on_time, verdict.required_delta, missed)


class TestWritesWithinEpsilon:
    """w1(x=1)@10.0 and w2(x=2)@10.4: indistinguishable if epsilon >= 0.4."""

    OPS = [
        write(0, "x", 1, 10.0),
        write(1, "x", 2, 10.4),
        read(2, "x", 1, 50.0),  # reads the *older* value much later
    ]

    def test_indistinguishable_writes_excuse_the_read(self):
        live, verdict = verdict_for(self.OPS, delta=0.5, epsilon=0.5)
        assert verdict.on_time
        assert verdict.missed == []
        assert verdict.required_delta == 0.0
        assert live.counts["late"] == 0

    def test_epsilon_exactly_the_gap_still_excuses(self):
        # t_w + epsilon < T(w') is strict: 10.0 + 0.4 < 10.4 is False.
        _, verdict = verdict_for(self.OPS, delta=0.0, epsilon=0.4)
        assert verdict.on_time

    def test_smaller_epsilon_restores_the_miss(self):
        live, verdict = verdict_for(self.OPS, delta=0.5, epsilon=0.3)
        assert not verdict.on_time
        assert [w.label() for w in verdict.missed] == ["w1(x)2"]
        # Definition 2's bound: T(r) - T(w') - epsilon.
        assert verdict.required_delta == pytest.approx(50.0 - 10.4 - 0.3)
        assert live.counts["late"] == 1

    def test_offline_checker_agrees(self):
        history = History(self.OPS)
        assert check_tsc(history, 0.5, epsilon=0.5).satisfied
        assert not check_tsc(history, 0.5, epsilon=0.3).satisfied


class TestBoundaryRead:
    """w'(x=2)@10; a read of the older value exactly at T(w') + delta."""

    DELTA = 5.0

    def ops(self, read_time):
        return [
            write(0, "x", 1, 0.0),
            write(1, "x", 2, 10.0),
            read(2, "x", 1, read_time),
        ]

    def test_read_exactly_at_deadline_is_on_time(self):
        live, verdict = verdict_for(self.ops(10.0 + self.DELTA), self.DELTA)
        assert verdict.on_time
        # ... but only just: the running threshold equals delta exactly.
        assert verdict.required_delta == pytest.approx(self.DELTA)
        assert live.required_delta == pytest.approx(self.DELTA)
        assert min_timed_delta(History(self.ops(10.0 + self.DELTA))) == \
            pytest.approx(self.DELTA)

    def test_read_a_hair_past_deadline_is_late(self):
        _, verdict = verdict_for(self.ops(10.0 + self.DELTA + 1e-6), self.DELTA)
        assert not verdict.on_time
        assert [w.label() for w in verdict.missed] == ["w1(x)2"]

    def test_offline_checker_agrees_at_the_boundary(self):
        on_time = History(self.ops(10.0 + self.DELTA))
        late = History(self.ops(10.0 + self.DELTA + 1e-6))
        assert check_tsc(on_time, self.DELTA).satisfied
        assert not check_tsc(late, self.DELTA).satisfied
        # The boundary trace fails for any tighter delta.
        assert not check_tsc(on_time, self.DELTA - 1e-6).satisfied

    def test_live_and_offline_round_the_boundary_alike(self):
        # 0.8 - 0.5 rounds to 0.30000000000000004 > 0.3, while 0.8 - 0.3
        # rounds to exactly 0.5: "T(w') < T(r) - delta" says on time and
        # "delta < T(r) - T(w')" says late.  Both judges take the second.
        ops = [
            write(0, "x", 1, 0.0), write(1, "x", 2, 0.5), read(2, "x", 1, 0.8),
        ]
        _, verdict = verdict_for(ops, 0.3)
        assert not verdict.on_time
        assert not check_tsc(History(ops), 0.3).satisfied

    def test_fresh_read_at_deadline_needs_no_delta(self):
        # The read returns w' itself: W_r is empty however tight delta is.
        ops = [
            write(0, "x", 1, 0.0),
            write(1, "x", 2, 10.0),
            read(2, "x", 2, 10.0 + self.DELTA),
        ]
        _, verdict = verdict_for(ops, 0.0)
        assert verdict.on_time
        assert verdict.required_delta == 0.0


class TestStreamDiscipline:
    def test_equal_times_accepted(self):
        # A read at the very time of its write: ties are legal.
        _, verdict = verdict_for(
            [write(0, "x", 1, 5.0), read(1, "x", 1, 5.0)], math.inf
        )
        assert verdict.on_time
