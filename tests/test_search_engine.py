"""The checking engine against the recursive reference search.

* property-based cross-validation of the one engine (the effective-time
  order, then constraint saturation) against the recursive reference in
  ``tests/search_reference.py``, with and without ``read_filter``;
* scale: a 100 000-op linearizable history decides SC, CC and TSC at the
  default recursion limit without importing numpy (the effective-time
  order is its witness), while the reference overflows the recursion
  limit on 5 000 operations;
* budget exhaustion surfacing as an explicit "unknown" everywhere
  (threshold_report, delta_spectrum, classify, census, CLI check).
"""

import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.checkers import (
    check_sc,
    check_tsc,
    classify,
    census,
    delta_spectrum,
    hierarchy_violations,
    threshold_report,
)
from repro.checkers.constraint import (
    _by_write_order,
    find_constrained_serialization,
)
from repro.core.serialization import (
    is_legal,
    respects,
    respects_program_order,
    time_order_witness,
)
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_sc_history,
)
from tests.search_reference import (
    find_serialization_recursive,
    find_site_ordered_serialization_recursive,
    on_time_filter,
)

seeds = st.integers(min_value=0, max_value=10**6)


def _program_order_preds(history):
    ops = list(history.operations)
    preds = {op: set() for op in ops}
    for a, b in history.immediate_program_order():
        preds[b].add(a)
    return ops, preds


def write_order_cases():
    """(history, operations, site) for every SC and per-site CC decision
    over the verdict digest's histories and 300 ``random_history`` seeds,
    with the operations each decision orders."""
    from tests.test_verdict_digest import histories

    everything = [h for _, h, _ in histories()] + [
        random_history(random.Random(seed)) for seed in range(300)
    ]
    for history in everything:
        yield history, list(history.operations), None
        for site in history.sites:
            others = [op for op in history.operations
                      if op.is_read and op.site != site]
            yield history, history.site_plus_writes(site) + others, site


class TestWriteOrder:
    """The write-order step (docs/THEORY.md, Result 5) against the engine
    and the causal closure it replaces."""

    def test_its_witnesses_are_ones_the_engine_accepts(self):
        for history, ops, site in write_order_cases():
            program_order = history.immediate_program_order()
            got = _by_write_order(history, ops, program_order, site)
            if got is None:
                continue
            engine, _ = find_constrained_serialization(
                history, ops, program_order, site=site)
            assert engine is not None
            assert sorted(map(id, got)) == sorted(map(id, ops))
            assert respects(got, program_order)
            placed = [op for op in got if site in (None, op.site) or op.is_write]
            assert is_legal(placed, history.initial_value)
            order = time_order_witness(history)
            if order is not None:
                kept = set(placed)
                assert placed == [op for op in order if op in kept]
            if site is not None:
                position = {op: i for i, op in enumerate(placed)}
                closure = history.causal_predecessors()
                for op in placed:
                    assert all(position[p] < position[op]
                               for p in closure[op] if p in position)

    def test_how_many_histories_it_decides(self):
        from tests.test_verdict_digest import histories

        decided = timed = sc = 0
        for _, history, _ in histories():
            got = _by_write_order(history, history.operations,
                                  history.immediate_program_order(), None)
            order = time_order_witness(history)
            decided += got is not None
            timed += order is not None and got == order
            sc += check_sc(history).satisfied
        assert (decided, timed, sc) == (151, 67, 192)


class TestCrossValidation:
    """The engine == the recursive reference, on randomized histories."""

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_general_engine_agrees(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, n_sites=3, n_objects=2, n_ops=12)
        ops, preds = _program_order_preds(history)
        got, _ = find_constrained_serialization(
            history, ops, history.immediate_program_order()
        )
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
        got = check_sc(history).witness
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
        # The decomposed TSC against both literal Definition-3 searches.
        rng = random.Random(seed)
        history = random_sc_history(rng, n_sites=3, n_objects=2, n_ops=12)
        on_time = on_time_filter(history, delta)
        got = check_tsc(history, delta).satisfied

        sequences = {s: history.site_ops(s) for s in history.sites}
        ref = find_site_ordered_serialization_recursive(
            sequences, history.initial_value, read_filter=on_time
        )
        assert got == (ref is not None)

        ops, preds = _program_order_preds(history)
        ref2 = find_serialization_recursive(
            ops, preds, history.initial_value, read_filter=on_time
        )
        assert got == (ref2 is not None)


#: Run in a fresh interpreter, so that numpy is not already loaded, and
#: with its address space capped: a dense reachability matrix over 10^5
#: operations (10 GB) fails at once instead of filling the machine.
LARGE_HISTORY = textwrap.dedent("""
    import math, random, resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    from repro.checkers import check_cc, check_sc, check_tsc
    from repro.workloads import random_linearizable_history

    assert sys.getrecursionlimit() <= 2000
    history = random_linearizable_history(
        random.Random(0xBEEF), n_sites=6, n_objects=8, n_ops=100_000
    )
    sc = check_sc(history)
    assert sc.satisfied and len(sc.witness) == 100_000
    assert sc.states_explored == 0
    assert check_cc(history).satisfied
    assert check_tsc(history, math.inf).satisfied
    assert "numpy" not in sys.modules
    print("ok")
""")


class TestLargeHistoryRegression:
    """Scale: no recursion, no numpy, no search on a linearizable trace."""

    def test_100k_op_history_without_numpy(self):
        src = pathlib.Path(repro.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", LARGE_HISTORY],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_recursive_reference_still_overflows(self):
        # Documents *why* the reference must never be the production
        # engine: 5 000 operations overwhelm Python's recursion limit.
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
    def test_check_result_carries_stats(self, fig5, engine_history):
        # Neither the time order nor the write order is a witness here, so
        # the engine ran and counted.
        assert check_sc(engine_history).states_explored > 0
        # Figure 5 is not linearizable, but its write order decides it.
        assert check_sc(fig5).states_explored == 0
        lin = random_linearizable_history(random.Random(1))
        assert check_sc(lin).states_explored == 0


class TestBudgetUnknown:
    """Budget exhaustion must surface as 'unknown', never a traceback."""

    def test_threshold_report_tiny_budget(self, engine_history):
        report = threshold_report(engine_history, budget=0)
        assert report.unknown
        assert report.sc_holds is None
        assert report.cc_holds is None
        assert math.isnan(report.tsc_threshold)
        assert math.isnan(report.tcc_threshold)
        assert report.satisfies_tsc(1e9) is None
        assert report.satisfies_tcc(1e9) is None

    def test_threshold_report_normal_budget_is_decided(self, engine_history):
        report = threshold_report(engine_history)
        assert not report.unknown
        assert report.sc_holds is True

    def test_delta_spectrum_tiny_budget(self, engine_history):
        spectrum = delta_spectrum(engine_history, budget=0)
        assert spectrum  # still produced a grid
        assert all(
            tsc_ok is None and tcc_ok is None
            for tsc_ok, tcc_ok in spectrum.values()
        )

    def test_classify_tiny_budget(self, engine_history):
        cls = classify(engine_history, delta=1e6, budget=0)
        assert cls.unknown()
        assert cls.sc is None and cls.cc is None
        assert cls.tsc is None and cls.tcc is None
        assert "unknown" in cls.region()
        # Undecided verdicts can never witness a hierarchy violation.
        assert hierarchy_violations(cls) == []

    def test_census_counts_unknowns(self, engine_history, fig6):
        counts = census([engine_history, fig6], delta=1e6, budget=0)
        assert counts["__budget_unknown__"] == 2
        assert counts["__hierarchy_violations__"] == 0

    def test_cli_check_reports_unknown_exit_3(
        self, engine_history, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.core.io import dump_history

        trace = tmp_path / "t.json"
        dump_history(engine_history, str(trace))
        code = main([
            "check", str(trace), "--criterion", "sc",
            "--budget", "0",
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
            "check", str(trace), "--criterion", "sc", "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "search stats:" in out
        nodes = check_sc(fig5).states_explored
        assert f"states: {nodes} " in out
