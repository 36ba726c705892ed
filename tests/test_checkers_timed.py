"""Tests for the TSC/TCC checkers, including the decomposition."""

import math

import pytest

from repro.checkers import (
    check_cc,
    check_lin,
    check_sc,
    check_tcc,
    check_tcc_logical,
    check_tsc,
)
from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import SumXi
from repro.core.history import History
from repro.core.operations import read, write
from tests.search_reference import tcc_direct, tsc_direct


class TestTSC:
    def test_paper_figure5_thresholds(self, fig5):
        assert not check_tsc(fig5, 50.0)  # paper: delta = 50 fails
        assert not check_tsc(fig5, 26.0)  # paper: delta < 27 fails
        assert check_tsc(fig5, 96.0)
        assert check_tsc(fig5, 97.0)  # paper: delta > 96 holds

    def test_violation_names_the_late_read(self, fig5):
        result = check_tsc(fig5, 50.0)
        assert "r4(C)6" in result.violation
        assert "w2(C)7" in result.violation

    def test_delta_inf_equals_sc(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            assert check_tsc(h, math.inf).satisfied == check_sc(h).satisfied

    def test_delta_zero_equals_lin_on_figures(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            assert check_tsc(h, 0.0).satisfied == check_lin(h).satisfied

    def test_not_sc_means_no_delta_works(self, fig6):
        assert not check_tsc(fig6, math.inf)
        assert not check_tsc(fig6, 1e9)

    def test_parameters_recorded(self, fig5):
        result = check_tsc(fig5, 96.0, epsilon=2.0)
        assert result.parameters == {"delta": 96.0, "epsilon": 2.0}

    def test_epsilon_weakens_tsc(self, fig5):
        # With a large enough epsilon the delta = 50 violation dissolves.
        assert not check_tsc(fig5, 50.0, epsilon=0.0)
        assert check_tsc(fig5, 50.0, epsilon=50.0)


class TestTCC:
    def test_paper_figure6_claims(self, fig6):
        assert not check_tcc(fig6, 30.0)  # paper: delta = 30 violates
        assert check_tcc(fig6, 300.0)

    def test_delta_inf_equals_cc(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            assert check_tcc(h, math.inf).satisfied == check_cc(h).satisfied

    def test_tcc_of_non_cc_history_fails(self):
        h = History(
            [
                write(0, "X", 1, 1.0),
                read(1, "X", 1, 2.0),
                write(1, "Y", 2, 3.0),
                read(2, "Y", 2, 4.0),
                read(2, "X", 0, 5.0),
            ]
        )
        assert not check_tcc(h, math.inf)

    def test_violation_message(self, fig6):
        result = check_tcc(fig6, 30.0)
        assert "late" in result.violation


class TestDirectEquivalence:
    """The decomposed checkers agree with the literal Definition-3/4
    searches (the reference search with an on-time read filter)."""

    @pytest.mark.parametrize("delta", [0.0, 26.0, 50.0, 96.0, 400.0])
    def test_tsc_direct_agrees_fig5(self, fig5, delta):
        assert (
            check_tsc(fig5, delta).satisfied
            == tsc_direct(fig5, delta)
        )

    @pytest.mark.parametrize("delta", [0.0, 30.0, 100.0, 300.0, 1000.0])
    def test_tcc_direct_agrees_fig6(self, fig6, delta):
        assert (
            check_tcc(fig6, delta).satisfied
            == tcc_direct(fig6, delta)
        )

    def test_agreement_on_random_histories(self, rng):
        from repro.core.timed import min_timed_delta
        from repro.workloads import random_replica_history, random_sc_history

        for i in range(20):
            h = (random_sc_history if i % 2 else random_replica_history)(rng)
            thr = min_timed_delta(h)
            for delta in (0.0, thr / 2, thr, thr * 2 + 1.0):
                assert (
                    check_tsc(h, delta).satisfied
                    == tsc_direct(h, delta)
                )
                assert (
                    check_tcc(h, delta).satisfied
                    == tcc_direct(h, delta)
                )


class TestTCCLogical:
    def _history(self):
        w1 = write(0, "X", "a", 1.0, ltime=VectorTimestamp((1, 0, 0)))
        w2 = write(1, "X", "b", 2.0, ltime=VectorTimestamp((1, 1, 0)))
        r = read(2, "X", "a", 3.0, ltime=VectorTimestamp((1, 1, 5)))
        return History([w1, w2, r], initial_value=None)

    def test_logical_tcc_threshold(self):
        h = self._history()
        xi = SumXi()
        assert not check_tcc_logical(h, 4.0, xi)
        assert check_tcc_logical(h, 5.0, xi)

    def test_logical_tcc_requires_cc(self):
        w1 = write(0, "X", "a", 1.0, ltime=VectorTimestamp((1, 0, 0)))
        r1 = read(1, "X", "a", 2.0, ltime=VectorTimestamp((1, 1, 0)))
        w2 = write(1, "Y", "b", 3.0, ltime=VectorTimestamp((1, 2, 0)))
        r2 = read(2, "Y", "b", 4.0, ltime=VectorTimestamp((1, 2, 1)))
        r3 = read(2, "X", None, 5.0, ltime=VectorTimestamp((1, 2, 2)))
        h = History([w1, r1, w2, r2, r3], initial_value=None)
        assert not check_tcc_logical(h, 1e9, SumXi())
