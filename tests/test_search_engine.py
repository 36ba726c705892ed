"""The iterative serialization-search engine (repro.checkers.search).

Covers the PR-2 engine swap:

* property-based cross-validation of the explicit-stack iterative engine
  against the kept recursive reference, with and without ``read_filter``;
* a large-history regression: 5000 operations must check without
  ``RecursionError`` at the default recursion limit;
* the SearchStats instrumentation surface (states, memo hits, prunes by
  reason, frontier depth, wall time);
* budget exhaustion surfacing as an explicit "unknown" everywhere the
  ISSUE audit requires (threshold_report, delta_spectrum, classify,
  census, CLI check).
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import (
    PRUNE_REASONS,
    SearchBudgetExceeded,
    SearchStats,
    check_sc,
    check_tsc,
    check_tsc_direct,
    classify,
    census,
    delta_spectrum,
    find_serialization,
    find_site_ordered_serialization,
    hierarchy_violations,
    restrict_edges,
    threshold_report,
)
from repro.core.serialization import is_legal, respects_program_order
from repro.core.timed import read_occurs_on_time
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_sc_history,
)
from tests.search_reference import (
    find_serialization_recursive,
    find_site_ordered_serialization_recursive,
)

seeds = st.integers(min_value=0, max_value=10**6)


def _program_order_preds(history):
    ops = list(history.operations)
    return ops, restrict_edges(history.immediate_program_order(), ops)


class TestCrossValidation:
    """Iterative engine == recursive reference, on randomized histories."""

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_general_engine_agrees(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, n_sites=3, n_objects=2, n_ops=12)
        ops, preds = _program_order_preds(history)
        got = find_serialization(ops, preds, history.initial_value)
        ref = find_serialization_recursive(ops, preds, history.initial_value)
        assert (got is None) == (ref is None)
        if got is not None:
            assert is_legal(got, history.initial_value)
            assert respects_program_order(got)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_site_ordered_engine_agrees(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, n_sites=3, n_objects=2, n_ops=12)
        sequences = {s: history.site_ops(s) for s in history.sites}
        got = find_site_ordered_serialization(sequences, history.initial_value)
        ref = find_site_ordered_serialization_recursive(
            sequences, history.initial_value
        )
        assert (got is None) == (ref is None)
        if got is not None:
            assert is_legal(got, history.initial_value)
            assert respects_program_order(got)

    @given(seeds, st.sampled_from([0.0, 0.5, 2.0, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_under_read_filter(self, seed, delta):
        rng = random.Random(seed)
        history = random_sc_history(rng, n_sites=3, n_objects=2, n_ops=12)

        def on_time(read_op, writer):
            return read_occurs_on_time(history, read_op, delta, 0.0, writer)

        sequences = {s: history.site_ops(s) for s in history.sites}
        got = find_site_ordered_serialization(
            sequences, history.initial_value, read_filter=on_time
        )
        ref = find_site_ordered_serialization_recursive(
            sequences, history.initial_value, read_filter=on_time
        )
        assert (got is None) == (ref is None)

        ops, preds = _program_order_preds(history)
        got2 = find_serialization(
            ops, preds, history.initial_value, read_filter=on_time
        )
        ref2 = find_serialization_recursive(
            ops, preds, history.initial_value, read_filter=on_time
        )
        assert (got2 is None) == (ref2 is None)


class TestLargeHistoryRegression:
    """The old recursive engine died with RecursionError at ~1000 ops."""

    def test_5000_op_history_checks_sc_and_tsc(self):
        rng = random.Random(0xBEEF)
        history = random_linearizable_history(
            rng, n_sites=6, n_objects=8, n_ops=5000
        )
        assert sys.getrecursionlimit() <= 2000  # the regression's premise
        sc = check_sc(history, method="search")
        assert sc.satisfied
        assert len(sc.witness) == 5000
        tsc = check_tsc(history, math.inf, method="search")
        assert tsc.satisfied

    def test_1500_op_direct_timed_search(self):
        # The Definition-3 direct search (read_filter forces the
        # backtracking engine) also crossed the old recursion limit.
        rng = random.Random(3)
        history = random_linearizable_history(
            rng, n_sites=4, n_objects=6, n_ops=1500
        )
        assert check_tsc_direct(history, math.inf).satisfied

    def test_recursive_reference_still_overflows(self):
        # Documents *why* the reference must never be the production
        # engine: the same history overwhelms Python's recursion limit.
        rng = random.Random(0xBEEF)
        history = random_linearizable_history(
            rng, n_sites=6, n_objects=8, n_ops=5000
        )
        sequences = {s: history.site_ops(s) for s in history.sites}
        with pytest.raises(RecursionError):
            find_site_ordered_serialization_recursive(
                sequences, history.initial_value
            )


class TestSearchStats:
    def test_stats_populated_by_search(self, fig5):
        stats = SearchStats()
        sequences = {s: fig5.site_ops(s) for s in fig5.sites}
        witness = find_site_ordered_serialization(
            sequences, fig5.initial_value, stats=stats
        )
        assert witness is not None
        assert stats.states > 0
        assert stats.max_frontier_depth == len(fig5) - 1
        assert stats.wall_time > 0.0
        assert tuple(stats.prunes) == PRUNE_REASONS

    def test_as_dict_round_trips_every_field(self):
        stats = SearchStats(budget=123)
        stats.bump()
        stats.note_prune("value_mismatch", 4)
        stats.note_memo_hit()
        stats.note_depth(7)
        d = stats.as_dict()
        assert d["states"] == 1
        assert d["memo_hits"] == 1
        assert d["prunes"]["value_mismatch"] == 4
        assert d["max_frontier_depth"] == 7
        assert d["budget"] == 123

    def test_check_result_carries_stats(self, fig5):
        result = check_sc(fig5, method="search")
        assert result.stats is not None
        assert result.stats.states == result.states_explored
        assert result.stats.states > 0

    def test_unknown_prune_reason_rejected(self):
        with pytest.raises(KeyError):
            SearchStats().note_prune("not_a_reason")


class TestBudgetUnknown:
    """Budget exhaustion must surface as 'unknown', never a traceback."""

    def test_threshold_report_tiny_budget(self, fig5):
        report = threshold_report(fig5, budget=1, method="search")
        assert report.unknown
        assert report.sc_holds is None
        assert report.cc_holds is None
        assert math.isnan(report.tsc_threshold)
        assert math.isnan(report.tcc_threshold)
        assert report.satisfies_tsc(1e9) is None
        assert report.satisfies_tcc(1e9) is None

    def test_threshold_report_normal_budget_is_decided(self, fig5):
        report = threshold_report(fig5, method="search")
        assert not report.unknown
        assert report.sc_holds is True
        assert report.sc_stats is not None

    def test_delta_spectrum_tiny_budget(self, fig5):
        spectrum = delta_spectrum(fig5, budget=1, method="search")
        assert spectrum  # still produced a grid
        assert all(
            tsc_ok is None and tcc_ok is None
            for tsc_ok, tcc_ok in spectrum.values()
        )

    def test_classify_tiny_budget(self, fig5):
        cls = classify(fig5, delta=1e6, budget=1, method="search")
        assert cls.unknown()
        assert cls.sc is None and cls.cc is None
        assert cls.tsc is None and cls.tcc is None
        assert "unknown" in cls.region()
        # Undecided verdicts can never witness a hierarchy violation.
        assert hierarchy_violations(cls) == []

    def test_census_counts_unknowns(self, fig5, fig6):
        counts = census([fig5, fig6], delta=1e6, budget=1, method="search")
        assert counts["__budget_unknown__"] == 2
        assert counts["__hierarchy_violations__"] == 0

    def test_cli_check_reports_unknown_exit_3(self, fig5, tmp_path, capsys):
        from repro.cli import main
        from repro.core.io import dump_history

        trace = tmp_path / "t.json"
        dump_history(fig5, str(trace))
        code = main([
            "check", str(trace), "--criterion", "sc",
            "--method", "search", "--budget", "1",
        ])
        out = capsys.readouterr().out
        assert code == 3
        assert "UNKNOWN" in out

    def test_cli_check_stats_renders(self, fig5, tmp_path, capsys):
        from repro.cli import main
        from repro.core.io import dump_history

        trace = tmp_path / "t.json"
        dump_history(fig5, str(trace))
        code = main([
            "check", str(trace), "--criterion", "sc",
            "--method", "search", "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "search stats:" in out
        assert "memo_hits" in out
        assert "value_mismatch" in out
