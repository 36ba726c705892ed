"""Tests for analysis.stats and the constraint checker's internals."""

import pytest

import repro.checkers.constraint as constraint_mod
from repro.analysis.stats import (
    confidence_interval,
    mean,
    replicate,
    stddev,
    stderr,
    summarize_rows,
)
from repro.checkers import check_cc, check_sc
from repro.checkers.constraint import _Reach
from repro.paperdata import figure5, figure6


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_stddev(self):
        assert stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.138, abs=0.01
        )
        assert stddev([1.0]) == 0.0

    def test_stderr(self):
        assert stderr([1.0, 2.0, 3.0]) == pytest.approx(stddev([1.0, 2.0, 3.0]) / 3**0.5)
        assert stderr([5.0]) == 0.0

    def test_confidence_interval(self):
        mu, half = confidence_interval([1.0, 1.0, 1.0])
        assert mu == 1.0 and half == 0.0

    def test_summarize_rows(self):
        rows = [
            {"delta": 0.5, "hit": 0.4},
            {"delta": 0.5, "hit": 0.6},
            {"delta": 1.0, "hit": 0.8},
        ]
        summary = {row["delta"]: row for row in summarize_rows(rows, "delta", ["hit"])}
        assert summary[0.5]["hit_mean"] == pytest.approx(0.5)
        assert summary[0.5]["n"] == 2
        assert summary[1.0]["hit_se"] == 0.0

    def test_summarize_skips_non_numeric(self):
        rows = [{"k": "a", "v": "not-a-number"}]
        summary = summarize_rows(rows, "k", ["v"])
        assert "v_mean" not in summary[0]

    def test_replicate_tags_seed(self):
        rows = replicate(lambda seed: {"x": seed * 2}, seeds=[1, 2])
        assert rows == [{"x": 2, "seed": 1}, {"x": 4, "seed": 2}]


class TestReachMatrix:
    def test_add_edge_and_transitivity(self):
        r = _Reach(4)
        assert r.add_edge(0, 1)
        assert r.add_edge(1, 2)
        assert r.has(0, 2)
        assert not r.has(2, 0)

    def test_cycle_rejected(self):
        r = _Reach(3)
        r.add_edge(0, 1)
        r.add_edge(1, 2)
        assert not r.add_edge(2, 0)
        assert not r.add_edge(0, 0)

    def test_redundant_edge_ok(self):
        r = _Reach(2)
        assert r.add_edge(0, 1)
        assert r.add_edge(0, 1)

    def test_copy_is_independent(self):
        r = _Reach(3)
        r.add_edge(0, 1)
        clone = r.copy()
        clone.add_edge(1, 2)
        assert clone.has(0, 2)
        assert not r.has(0, 2)


class TestPurePythonFallback:
    """The constraint checker must work without numpy."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(constraint_mod, "_np", None)

    def test_reach_without_numpy(self, no_numpy):
        r = _Reach(4)
        r.add_edge(0, 1)
        r.add_edge(1, 3)
        assert r.has(0, 3)
        clone = r.copy()
        assert clone.has(0, 3)

    def test_checkers_agree_without_numpy(self, no_numpy):
        assert check_sc(figure5()).satisfied
        assert not check_sc(figure6()).satisfied
        assert check_cc(figure6()).satisfied
