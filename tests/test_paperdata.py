"""Every claim the paper makes about its worked examples, as tests.

These are the reproduction's ground truth: if any of these fail, the
library no longer reproduces the paper.
"""

import pytest

from repro.checkers import check_cc, check_lin, check_sc, check_tcc, check_tsc
from repro.core import Serialization, min_timed_delta, w_r_set
from repro.core.timed import read_occurs_on_time
from repro.paperdata import (
    FIGURE1_DELTA,
    FIGURE5_DELTA_VIOLATING,
    FIGURE5_THRESHOLD_B,
    FIGURE5_THRESHOLD_C,
    FIGURE6_DELTA_VIOLATING,
    FIGURE6_LATE_READ_TIME,
    FIGURE6_MISSED_WRITE_TIME,
    figure1,
    figure5,
    figure5_serialization,
    figure6,
    figure6_late_read,
    figures2_3,
)


class TestFigure1:
    def test_satisfies_sc_and_cc_but_not_lin(self, fig1):
        assert check_sc(fig1)
        assert check_cc(fig1)
        assert not check_lin(fig1)

    def test_early_reads_on_time_late_reads_not(self, fig1):
        reads = sorted(fig1.reads, key=lambda r: r.time)
        verdicts = [
            read_occurs_on_time(fig1, r, FIGURE1_DELTA) for r in reads
        ]
        # "Up to the second operation ... satisfies timed consistency ...
        # After this point, the execution is not even timed."
        assert verdicts == [True, True, False, False]

    def test_not_tsc_at_figure_delta(self, fig1):
        assert not check_tsc(fig1, FIGURE1_DELTA)


class TestFigures23:
    def test_definition1_rejects(self, fig23):
        r = fig23.the_read
        missed = {w.value for w in w_r_set(fig23.history, r, fig23.delta)}
        assert missed == {"v2", "v3"}  # exactly w2 and w3, as in Figure 2

    def test_definition2_accepts(self, fig23):
        r = fig23.the_read
        assert w_r_set(fig23.history, r, fig23.delta, fig23.epsilon) == []


class TestFigure5:
    def test_classification(self, fig5):
        assert check_sc(fig5)
        assert check_cc(fig5)
        assert not check_lin(fig5)

    def test_figure5b_serialization_proves_sc(self, fig5):
        s = Serialization(figure5_serialization(fig5))
        assert s.is_legal()
        assert s.respects_program_order()
        assert s.covers(fig5.operations)

    def test_figure5b_is_not_in_real_time_order(self, fig5):
        s = Serialization(figure5_serialization(fig5))
        seq = list(s)
        assert any(a.time > b.time for a, b in zip(seq, seq[1:]))

    def test_quoted_times_are_exact(self, fig5):
        labels = {op.label(): op.time for op in fig5.operations}
        assert labels["w0(C)6"] == 338.0
        assert labels["w2(C)7"] == 340.0
        assert labels["r4(C)6"] == 436.0
        assert labels["w2(B)5"] == 274.0
        assert labels["r3(B)2"] == 301.0

    def test_delta_50_violates_tsc(self, fig5):
        assert not check_tsc(fig5, FIGURE5_DELTA_VIOLATING)

    def test_delta_above_96_satisfies_tsc(self, fig5):
        assert check_tsc(fig5, FIGURE5_THRESHOLD_C + 0.5)

    def test_delta_below_27_violates_via_b(self, fig5):
        result = check_tsc(fig5, FIGURE5_THRESHOLD_B - 1.0)
        assert not result
        assert "w2(B)5" in result.violation

    def test_threshold_is_96(self, fig5):
        assert min_timed_delta(fig5) == pytest.approx(96.0)


class TestFigure6:
    def test_classification(self, fig6):
        assert check_cc(fig6)
        assert not check_sc(fig6)
        assert not check_lin(fig6)

    def test_quoted_times_are_exact(self, fig6):
        late = figure6_late_read(fig6)
        assert late.time == FIGURE6_LATE_READ_TIME
        w = next(op for op in fig6.writes if op.label() == "w2(C)3")
        assert w.time == FIGURE6_MISSED_WRITE_TIME

    def test_delta_30_violates_tcc_via_the_quoted_read(self, fig6):
        late = figure6_late_read(fig6)
        missed = w_r_set(fig6, late, FIGURE6_DELTA_VIOLATING)
        assert [w.label() for w in missed] == ["w2(C)3"]
        assert not check_tcc(fig6, FIGURE6_DELTA_VIOLATING)

    def test_large_delta_satisfies_tcc(self, fig6):
        assert check_tcc(fig6, min_timed_delta(fig6))

    def test_no_delta_gives_tsc(self, fig6):
        assert not check_tsc(fig6, 1e12)

    def test_figure6b_serializations_prove_cc(self, fig6):
        from repro.core.serialization import is_legal, respects
        from repro.paperdata import figure6_serializations

        pairs = fig6.causal_pairs()
        for site, seq in figure6_serializations(fig6).items():
            assert is_legal(seq, fig6.initial_value), f"S{site} illegal"
            assert respects(seq, pairs), f"S{site} breaks causal order"
            expected = set(fig6.site_plus_writes(site))
            assert set(seq) == expected, f"S{site} wrong op set"

    def test_figure6b_shows_concurrent_writes_in_different_orders(self, fig6):
        """The point of Figure 6(b): different sites may serialize the
        concurrent B writes in different orders."""
        from repro.paperdata import figure6_serializations

        orders = {}
        for site, seq in figure6_serializations(fig6).items():
            b_writes = [op.label() for op in seq if op.is_write and op.obj == "B"]
            orders[site] = tuple(b_writes)
        assert len(set(orders.values())) > 1

    def test_r0b4_is_the_blamed_read(self, fig6):
        # Removing site 0's final read restores SC — the paper blames
        # exactly that operation.
        from repro.core.history import History

        pruned = History(
            [op for op in fig6.operations if op.label() != "r0(B)4"]
        )
        assert check_sc(pruned)
