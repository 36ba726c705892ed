"""Unit tests for repro.core.history."""

import pytest

from repro.core.history import History, HistoryError
from repro.core.operations import read, write


def simple_history():
    return History(
        [
            write(0, "X", 1, 1.0),
            write(0, "Y", 2, 2.0),
            read(1, "X", 1, 3.0),
            write(1, "Z", 3, 4.0),
            read(2, "Z", 3, 5.0),
            read(2, "X", 0, 0.5),
        ]
    )


class TestViews:
    def test_sites_and_objects(self):
        h = simple_history()
        assert h.sites == [0, 1, 2]
        assert h.objects == ["X", "Y", "Z"]

    def test_site_ops_in_time_order(self):
        h = simple_history()
        times = [op.time for op in h.site_ops(2)]
        assert times == sorted(times)

    def test_site_plus_writes_contains_all_writes(self):
        h = simple_history()
        hw = h.site_plus_writes(2)
        labels = {op.label() for op in hw}
        assert {"w0(X)1", "w0(Y)2", "w1(Z)3"} <= labels
        assert sum(1 for op in hw if op.is_read) == 2  # only site 2's reads

    def test_site_plus_writes_no_duplicates_for_writer_site(self):
        h = simple_history()
        hw = h.site_plus_writes(0)
        assert len(hw) == len(set(hw))

    def test_reads_and_writes_split(self):
        h = simple_history()
        assert len(h.reads) + len(h.writes) == len(h)

    def test_writes_to_sorted(self):
        h = History(
            [write(0, "X", 1, 5.0), write(1, "X", 2, 1.0), write(2, "X", 3, 3.0)]
        )
        assert [w.time for w in h.writes_to("X")] == [1.0, 3.0, 5.0]


class TestReadsFrom:
    def test_writer_of_resolves_by_value(self):
        h = simple_history()
        r = next(op for op in h.reads if op.obj == "X" and op.value == 1)
        assert h.writer_of(r).label() == "w0(X)1"

    def test_initial_value_read_has_no_writer(self):
        h = simple_history()
        r = next(op for op in h.reads if op.value == 0)
        assert h.writer_of(r) is None

    def test_writer_of_write_rejected(self):
        h = simple_history()
        with pytest.raises(ValueError):
            h.writer_of(h.writes[0])

    def test_duplicate_written_value_rejected(self):
        with pytest.raises(HistoryError):
            History([write(0, "X", 1, 1.0), write(1, "X", 1, 2.0)])

    def test_read_of_unwritten_value_rejected(self):
        with pytest.raises(HistoryError):
            History([read(0, "X", 99, 1.0)])

    def test_validation_can_be_disabled(self):
        h = History([read(0, "X", 99, 1.0)], validate=False)
        assert len(h) == 1


class TestProgramOrder:
    def test_immediate_pairs(self):
        h = simple_history()
        pairs = {(a.label(), b.label()) for a, b in h.immediate_program_order()}
        assert ("w0(X)1", "w0(Y)2") in pairs
        assert ("r2(X)0", "r2(Z)3") in pairs

    def test_transitive_pairs_superset(self):
        h = History(
            [write(0, "X", 1, 1.0), write(0, "Y", 2, 2.0), write(0, "Z", 3, 3.0)]
        )
        assert len(h.immediate_program_order()) == 2


class TestCausalOrder:
    def test_program_order_is_causal(self):
        h = simple_history()
        ops = h.site_ops(0)
        assert ops[0] in h.causal_predecessors()[ops[1]]

    def test_reads_from_is_causal(self):
        h = simple_history()
        w = next(op for op in h.writes if op.label() == "w0(X)1")
        r = next(op for op in h.reads if op.value == 1)
        assert w in h.causal_predecessors()[r]

    def test_transitivity(self):
        # w0(X)1 -> r1(X)1 -> w1(Z)3 -> r2(Z)3
        h = simple_history()
        w = next(op for op in h.writes if op.label() == "w0(X)1")
        r = next(op for op in h.reads if op.value == 3)
        assert w in h.causal_predecessors()[r]

    def test_concurrent(self):
        h = simple_history()
        early_read = next(op for op in h.reads if op.value == 0)
        w = next(op for op in h.writes if op.label() == "w1(Z)3")
        assert h.concurrent(early_read, w)
        assert not h.concurrent(w, w)

    def test_causal_predecessors_are_never_concurrent(self):
        h = simple_history()
        for b, preds in h.causal_predecessors().items():
            assert b not in preds
            for a in preds:
                assert not h.concurrent(a, b)

    def test_causal_pairs_consistent_with_predicate(self):
        h = simple_history()
        closure = h.causal_predecessors()
        for a, b in h.causal_pairs():
            assert a in closure[b]

    def test_cycle_detected(self):
        # r reads v before it is written at the same site ordering that
        # makes the write causally after the read, while the read's value
        # makes the write causally before it: a cycle.
        ops = [
            read(0, "X", "v", 1.0),
            write(0, "X", "v", 2.0),
        ]
        h = History(ops)
        with pytest.raises(HistoryError):
            h.causal_predecessors()


class TestConstructors:
    def test_operations_are_grouped_by_site(self):
        h = History([read(1, "X", 1, 2.0), write(0, "X", 1, 1.0)])
        assert h.sites == [0, 1]
        assert [op.label() for op in h.site_ops(0)] == ["w0(X)1"]

    def test_repr(self):
        assert "6 ops" in repr(simple_history())
