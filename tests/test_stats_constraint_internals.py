"""Tests for analysis.stats and the constraint checker's internals."""

import random

import pytest

from repro.analysis.stats import mean, stddev, stderr
from repro.checkers.constraint import _Reach


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

    def test_undo_restores_the_matrix(self):
        r = _Reach(4)
        r.add_edge(0, 1)
        before = (list(r.rows), list(r.cols))
        r.trail = []
        assert r.add_edge(1, 2)
        assert r.add_edge(2, 3)
        assert r.has(0, 3) and r.trail
        r.undo(0)
        assert (r.rows, r.cols) == before and r.trail == []
        assert r.has(0, 1) and not r.has(0, 2) and not r.has(1, 3)

    def test_rows_and_columns_are_the_transitive_closure(self):
        rng = random.Random(5)
        n = 12
        r = _Reach(n)
        edges = set()
        for _ in range(40):
            a, b = rng.sample(range(n), 2)
            if r.add_edge(a, b):
                edges.add((a, b))
        closure = set(edges)
        while True:
            more = {(a, d) for a, b in closure for c, d in closure if b == c}
            if more <= closure:
                break
            closure |= more
        for a in range(n):
            for b in range(n):
                assert r.has(a, b) == ((a, b) in closure)
                assert bool(r.cols[b] >> a & 1) == ((a, b) in closure)
