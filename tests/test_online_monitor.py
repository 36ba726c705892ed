"""The one rule for reading on time, judged live and offline.

``repro.core.timed`` judges a read over the whole history; ``OnTimeRatio``
judges it from a per-object window of writes as they stream in.  Both
call :func:`repro.core.timed.required_delta`, so with a window large
enough to keep every write they must agree read for read.
"""

import random

import pytest

from repro.core.history import History
from repro.core.operations import read, write
from repro.core.timed import late_reads, min_timed_delta, w_r_set
from repro.obs.instruments import OnTimeRatio
from repro.obs.metrics import Registry
from repro.paperdata import figure1, figure5, figure6


def stream_of(history: History):
    return sorted(history.operations, key=lambda op: op.time)


def judge_stream(ops, delta, epsilon=0.0, initial_value=0):
    """Feed ``ops`` in order to an ``OnTimeRatio``; returns it and the
    verdict of each read, keyed by the read."""
    live = OnTimeRatio(Registry(), delta, epsilon, window=1024,
                       initial_value=initial_value)
    verdicts = {}
    for op in ops:
        if op.is_write:
            live.observe_write(op.obj, op.value, op.time)
        else:
            verdicts[op] = live.observe_read(op.obj, op.value, op.time)
    return live, verdicts


class TestBasics:
    def test_write_returns_none(self):
        live = OnTimeRatio(Registry(), delta=1.0)
        assert live.observe_write("x", 1, 1.0) is None
        assert live.counts == {"on_time": 0, "late": 0, "unjudged": 0,
                               "writes": 1}

    def test_fresh_read_on_time(self):
        ops = [write(0, "x", 1, 1.0), read(1, "x", 1, 2.0)]
        _, verdicts = judge_stream(ops, delta=1.0)
        (verdict,) = verdicts.values()
        assert verdict.on_time and verdict.required_delta == 0.0
        assert late_reads(History(ops), 1.0) == []

    def test_stale_read_flagged_with_missed_writes(self):
        ops = [write(0, "x", 1, 1.0), write(0, "x", 2, 2.0),
               read(1, "x", 1, 10.0)]
        _, verdicts = judge_stream(ops, delta=1.0)
        assert not verdicts[ops[2]].on_time
        assert verdicts[ops[2]].required_delta == pytest.approx(8.0)
        history = History(ops)
        assert late_reads(history, 1.0) == [ops[2]]
        assert [w.label() for w in w_r_set(history, ops[2], 1.0)] == ["w0(x)2"]

    def test_initial_value_read(self):
        ops = [write(0, "x", 1, 1.0), read(1, "x", 0, 5.0)]
        _, verdicts = judge_stream(ops, delta=1.0)
        assert not verdicts[ops[1]].on_time  # the write at 1 is 4 > delta old
        assert late_reads(History(ops), 1.0) == [ops[1]]

    def test_epsilon_shrinks_window(self):
        ops = [write(0, "x", 1, 1.0), write(0, "x", 2, 2.0),
               read(1, "x", 1, 10.0)]
        _, verdicts = judge_stream(ops, delta=1.0, epsilon=8.0)
        assert verdicts[ops[2]].on_time  # 2 + 8 >= 10 - 1
        assert late_reads(History(ops), 1.0, epsilon=8.0) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OnTimeRatio(Registry(), delta=-1.0)
        with pytest.raises(ValueError):
            OnTimeRatio(Registry(), delta=1.0, epsilon=-1.0)
        history = History([write(0, "x", 1, 1.0), read(1, "x", 1, 2.0)])
        with pytest.raises(ValueError):
            late_reads(history, -1.0)
        with pytest.raises(ValueError):
            late_reads(history, 1.0, epsilon=-1.0)


class TestAgreementWithOffline:
    @pytest.mark.parametrize(
        "factory,delta",
        [(figure1, 60.0), (figure5, 50.0), (figure5, 97.0), (figure6, 30.0)],
    )
    def test_matches_late_reads(self, factory, delta):
        history = factory()
        _, verdicts = judge_stream(stream_of(history), delta,
                                   initial_value=history.initial_value)
        online_late = {r for r, v in verdicts.items() if not v.on_time}
        offline_late = set(late_reads(history, delta))
        assert online_late == offline_late

    @pytest.mark.parametrize("factory", [figure1, figure5, figure6])
    def test_threshold_matches_offline(self, factory):
        history = factory()
        live, _ = judge_stream(stream_of(history), 0.0,
                               initial_value=history.initial_value)
        assert live.required_delta == pytest.approx(min_timed_delta(history))

    def test_random_histories_agree(self):
        from repro.workloads import random_replica_history

        rng = random.Random(7)
        for _ in range(15):
            history = random_replica_history(rng)
            delta = rng.uniform(0.0, 10.0)
            _, verdicts = judge_stream(stream_of(history), delta)
            online_late = {r for r, v in verdicts.items() if not v.on_time}
            offline_late = set(late_reads(history, delta))
            assert online_late == offline_late


class TestStats:
    def test_counts(self):
        history = figure1()
        live, _ = judge_stream(stream_of(history), 60.0,
                               initial_value=history.initial_value)
        assert live.counts == {"on_time": 2, "late": 2, "unjudged": 0,
                               "writes": 2}
        assert live.ratio == 0.5
        assert len(late_reads(history, 60.0)) == 2

    def test_empty_monitor(self):
        assert OnTimeRatio(Registry(), delta=1.0).ratio == 1.0
