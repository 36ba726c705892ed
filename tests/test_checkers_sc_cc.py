"""Tests for the SC and CC checkers, each case also run on the recursive
reference search they are cross-validated against."""

import pytest

from repro.checkers import check_cc, check_lin, check_sc
from repro.checkers.result import SearchBudgetExceeded
from repro.core.history import History
from repro.core.operations import read, write
from repro.core.serialization import is_legal, respects, respects_program_order
from tests.search_reference import check_cc_reference, check_sc_reference

#: ``constraint`` is the package's checker, ``search`` the reference.
ENGINES = ["constraint", "search"]
SC = {"constraint": check_sc, "search": check_sc_reference}
CC = {"constraint": check_cc, "search": check_cc_reference}


def dekker_style_violation():
    """w(X)1 || w(Y)1 with both sites then reading the other's object as 0:
    the classic non-SC (but coherent) execution."""
    return History(
        [
            write(0, "X", 1, 1.0),
            read(0, "Y", 0, 2.0),
            write(1, "Y", 1, 1.5),
            read(1, "X", 0, 2.5),
        ]
    )


def cc_not_sc():
    """Two sites observe two concurrent writes in opposite orders."""
    return History(
        [
            write(0, "X", 1, 1.0),
            write(1, "X", 2, 1.1),
            read(2, "X", 1, 2.0),
            read(2, "X", 2, 3.0),
            read(3, "X", 2, 2.1),
            read(3, "X", 1, 3.1),
        ]
    )


def not_cc():
    """A site reads v2 then v1 where w(v1) causally precedes w(v2)."""
    return History(
        [
            write(0, "X", 1, 1.0),
            read(1, "X", 1, 2.0),  # site 1 sees v1...
            write(1, "Y", 2, 3.0),  # ...then writes Y (causal edge)
            read(2, "Y", 2, 4.0),  # site 2 sees the Y write...
            read(2, "X", 0, 5.0),  # ...but then misses the older X write
        ]
    )


@pytest.mark.parametrize("method", ENGINES)
class TestSC:
    def test_dekker_not_sc(self, method):
        assert not SC[method](dekker_style_violation())

    def test_simple_sc(self, method):
        h = History(
            [
                write(0, "X", 1, 1.0),
                read(1, "X", 0, 0.5),
                read(1, "X", 1, 2.0),
            ]
        )
        result = SC[method](h)
        assert result

    def test_witness_is_valid(self, method, fig5):
        result = SC[method](fig5)
        assert result
        assert is_legal(result.witness, fig5.initial_value)
        assert respects_program_order(result.witness)
        assert len(result.witness) == len(fig5)

    def test_cc_only_history_not_sc(self, method):
        assert not SC[method](cc_not_sc())

    def test_empty_history(self, method):
        assert SC[method](History([]))

    def test_write_only_history(self, method):
        h = History([write(0, "X", 1, 1.0), write(1, "X", 2, 1.5)])
        assert SC[method](h)


@pytest.mark.parametrize("method", ENGINES)
class TestCC:
    def test_cc_not_sc_history(self, method):
        h = cc_not_sc()
        assert CC[method](h)
        assert not SC[method](h)

    def test_not_cc_history(self, method):
        assert not CC[method](not_cc())

    def test_dekker_is_cc(self, method):
        # The classic non-SC execution is causally consistent.
        assert CC[method](dekker_style_violation())

    def test_site_witnesses_are_valid(self, method, fig6):
        result = CC[method](fig6)
        assert result
        closure_pairs = fig6.causal_pairs()
        for site, witness in result.site_witnesses.items():
            assert is_legal(witness, fig6.initial_value)
            assert respects(witness, closure_pairs)
            expected = set(fig6.site_plus_writes(site))
            assert set(witness) == expected

    def test_empty_history(self, method):
        assert CC[method](History([]))


class TestBudget:
    def test_search_budget_raises(self, engine_history):
        with pytest.raises(SearchBudgetExceeded):
            check_sc(engine_history, budget=0)

    def test_constraint_budget(self):
        from repro.checkers.constraint import find_constrained_serialization

        h = cc_not_sc()
        with pytest.raises(SearchBudgetExceeded):
            find_constrained_serialization(
                h, h.operations, h.immediate_program_order(), budget=0
            )

    @pytest.mark.parametrize("check", [check_sc, check_cc])
    def test_the_default_engine_takes_the_budget(self, check, engine_history):
        """``budget`` caps the constraint engine too: it used to stop
        at its own 10 000 branch nodes whatever the caller asked."""
        with pytest.raises(SearchBudgetExceeded) as raised:
            check(engine_history, budget=0)
        assert raised.value.budget == 0
        assert check(engine_history, budget=None)  # None: the engine's own cap


class TestViolationExplanations:
    def test_sc_violation_names_concrete_operations(self, fig6):
        result = check_sc(fig6)
        assert not result
        # The explanation must reference actual operations of the history.
        assert "forced" in result.violation
        assert any(
            op.label() in result.violation for op in fig6.operations
        )

    def test_cc_violation_explains_initial_value_conflict(self):
        result = check_cc(not_cc())
        assert not result
        assert "initial value" in result.violation or "forced" in result.violation

    def test_dekker_explanation_mentions_cycle_or_between(self):
        result = check_sc(dekker_style_violation())
        assert not result
        assert "forced" in result.violation


class TestEngineAgreement:
    def test_engines_agree_on_random_histories(self, rng):
        from repro.workloads import (
            random_history,
            random_replica_history,
            random_sc_history,
        )

        for i in range(40):
            generator = (random_sc_history, random_replica_history, random_history)[
                i % 3
            ]
            h = generator(rng)
            assert (
                check_sc_reference(h).satisfied == check_sc(h).satisfied
            ), f"SC disagreement on case {i}"
            assert (
                check_cc_reference(h).satisfied == check_cc(h).satisfied
            ), f"CC disagreement on case {i}"


class TestUnwrittenValues:
    """A read of a value no write produced, other than the initial value,
    has no legal place in any serialization.  ``validate=False`` lets
    such reads in, as when a slice of a history cuts a read off from its
    writer."""

    def unvalidated(self):
        return History(
            [write(0, "X", "a", 1.0), read(1, "X", "b", 2.0)], validate=False
        )

    def windowed(self):
        h = History([write(0, "X", "a", 1.0), read(1, "X", "a", 3.0)])
        return History([op for op in h if 2.0 <= op.time <= 4.0],
                       validate=False)

    @pytest.mark.parametrize("name", ["unvalidated", "windowed"])
    @pytest.mark.parametrize("check", [check_sc, check_cc, check_lin])
    def test_the_read_is_named_as_the_violation(self, name, check):
        history = getattr(self, name)()
        (bad,) = history.reads
        result = check(history)
        assert not result
        assert bad.label() in result.violation
        assert check_sc_reference(history).satisfied is False
        assert check_cc_reference(history).satisfied is False

    def test_a_read_cut_off_from_its_writer_by_a_slice_fails(self):
        h = History([write(0, "X", "a", 1.0), read(1, "X", "a", 3.0)])
        assert check_sc(h) and check_cc(h)
        site1 = History(h.site_ops(1), validate=False)
        assert not check_sc(site1)
        assert not check_cc(site1)
