"""Tests for delta thresholds and the Figure 4a hierarchy."""

import math

import pytest

from repro.checkers import (
    check_cc,
    check_lin,
    check_sc,
    check_tcc,
    check_tsc,
    classify,
    delta_spectrum,
    hierarchy_violations,
    tcc_threshold,
    threshold_report,
    tsc_threshold,
)
from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import SumXi
from repro.core.history import History
from repro.core.operations import read, write


class TestThresholds:
    def test_figure5_threshold(self, fig5):
        assert tsc_threshold(fig5) == pytest.approx(96.0)
        assert tcc_threshold(fig5) == pytest.approx(96.0)

    def test_figure6_thresholds(self, fig6):
        assert math.isinf(tsc_threshold(fig6))  # not SC: no delta works
        thr = tcc_threshold(fig6)
        assert math.isfinite(thr)
        assert check_tcc(fig6, thr)
        assert not check_tcc(fig6, thr - 1.0)

    def test_figure1_threshold(self, fig1):
        assert tsc_threshold(fig1) == pytest.approx(320.0)

    def test_threshold_report_consistency(self, fig5):
        report = threshold_report(fig5)
        assert report.sc_holds and report.cc_holds
        assert report.satisfies_tsc(100.0)
        assert not report.satisfies_tsc(50.0)
        assert report.tsc_threshold == report.timed_threshold

    def test_logical_threshold(self):
        from repro.checkers import tcc_logical_threshold

        w1 = write(0, "X", "a", 1.0, ltime=VectorTimestamp((1, 0, 0)))
        w2 = write(1, "X", "b", 2.0, ltime=VectorTimestamp((1, 1, 0)))
        r = read(2, "X", "a", 3.0, ltime=VectorTimestamp((1, 1, 5)))
        h = History([w1, w2, r], initial_value=None)
        assert tcc_logical_threshold(h, SumXi()) == pytest.approx(5.0)


class TestSpectrum:
    def test_spectrum_is_monotone(self, fig5):
        spectrum = delta_spectrum(fig5, deltas=[0, 26, 50, 96, 97, 1000])
        verdicts = [tsc for tsc, _ in spectrum.values()]
        # Once satisfied, stays satisfied as delta grows.
        first_true = verdicts.index(True)
        assert all(verdicts[first_true:])
        assert not any(verdicts[:first_true])

    def test_default_grid_brackets_threshold(self, fig5):
        spectrum = delta_spectrum(fig5)
        assert any(tsc for tsc, _ in spectrum.values())
        assert not all(tsc for tsc, _ in spectrum.values())


class TestHierarchy:
    def test_figures_respect_hierarchy(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            for delta in (0.0, 50.0, 300.0, math.inf):
                cls = classify(h, delta)
                assert hierarchy_violations(cls) == []

    def test_classification_regions(self, fig5, fig6):
        cls5 = classify(fig5, 100.0)
        assert cls5.sc and cls5.cc and cls5.tsc and cls5.tcc and not cls5.lin
        assert cls5.region() == "TSC+SC+TCC+CC"
        cls6 = classify(fig6, 30.0)
        assert cls6.cc and not cls6.sc and not cls6.tcc
        assert cls6.region() == "CC"

    def test_endpoint_identities(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            zero, infinite = classify(h, 0.0), classify(h, math.inf)
            assert zero.lin == zero.tsc
            assert infinite.sc == infinite.tsc

    def test_random_histories_respect_hierarchy(self, rng):
        from repro.core.timed import min_timed_delta
        from repro.workloads import (
            random_history,
            random_linearizable_history,
            random_replica_history,
            random_sc_history,
        )

        generators = [
            random_linearizable_history,
            random_sc_history,
            random_replica_history,
            random_history,
        ]
        for i in range(24):
            h = generators[i % 4](rng)
            thr = min_timed_delta(h)
            for delta in (0.0, thr, math.inf):
                cls = classify(h, delta)
                assert hierarchy_violations(cls) == [], (
                    f"violation for generator {i % 4}, delta={delta}: {cls}"
                )

    def test_census_counts(self, fig1, fig5, fig6):
        from repro.checkers import census

        counts = census([fig1, fig5, fig6], delta=1e6)
        assert counts["__hierarchy_violations__"] == 0
        assert sum(v for k, v in counts.items() if not k.startswith("__")) == 3


@pytest.fixture
def engine_runs(monkeypatch):
    """Every run of the checking engine from here on, one entry each."""
    from repro.checkers import constraint

    runs = []
    search = constraint.find_constrained_serialization

    def counted(*args, **kwargs):
        runs.append(len(args[1]))  # the operations it ordered
        return search(*args, **kwargs)

    monkeypatch.setattr(constraint, "find_constrained_serialization", counted)
    return runs


class TestOneSearchPerBase:
    """No front-end repeats a search whose answer it already holds."""

    @pytest.mark.parametrize("figure", ["fig1", "fig5"])
    def test_threshold_report_takes_cc_from_a_holding_sc(
        self, figure, request, engine_runs
    ):
        history = request.getfixturevalue(figure)
        assert check_sc(history) and not check_lin(history)
        engine_runs.clear()
        report = threshold_report(history)
        assert report.sc_holds and report.cc_holds
        # SC's one search; CC is its witness restricted to each H_(i+w).
        assert len(engine_runs) == 1

    def test_threshold_report_searches_cc_when_sc_fails(self, fig6, engine_runs):
        report = threshold_report(fig6)
        assert report.sc_holds is False and report.cc_holds is True
        assert len(engine_runs) == 1 + len(fig6.sites)

    @pytest.mark.parametrize("figure", ["fig1", "fig5", "fig6"])
    def test_classify_searches_sc_once_and_each_site_once(
        self, figure, request, engine_runs
    ):
        history = request.getfixturevalue(figure)
        assert check_cc(history) and not check_lin(history)
        engine_runs.clear()
        cls = classify(history, math.inf)
        assert cls.cc and cls.tcc and cls.tsc == cls.sc and not cls.lin
        # LIN decides by the time order; SC once, CC once per site, and
        # TSC/TCC at delta = inf are those results, not new searches.
        assert len(engine_runs) == 1 + len(history.sites)

    def test_a_late_read_decides_a_timed_verdict_without_a_search(self, fig5):
        cls = classify(fig5, 50.0, budget=0)
        assert cls.sc is None and cls.cc is None
        assert cls.tsc is False and cls.tcc is False


class TestGeneratorsLandWhereExpected:
    def test_linearizable_generator(self, rng):
        from repro.checkers import check_lin
        from repro.workloads import random_linearizable_history

        for _ in range(10):
            assert check_lin(random_linearizable_history(rng))

    def test_sc_generator(self, rng):
        from repro.checkers import check_sc
        from repro.workloads import random_sc_history

        for _ in range(10):
            assert check_sc(random_sc_history(rng))

    def test_replica_generator_is_cc(self, rng):
        from repro.checkers import check_cc
        from repro.workloads import random_replica_history

        for _ in range(10):
            assert check_cc(random_replica_history(rng))
