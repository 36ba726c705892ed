"""Unit tests for repro.core.serialization."""

import pytest

from repro.core.history import History
from repro.core.operations import read, write
from repro.core.serialization import (
    Serialization,
    first_legality_violation,
    is_legal,
    reads_from_in,
    respects,
    respects_program_order,
    time_order_witness,
)


class TestLegality:
    def test_legal_sequence(self):
        seq = [write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)]
        assert is_legal(seq)

    def test_read_of_initial_value(self):
        assert is_legal([read(0, "X", 0, 1.0)])
        assert is_legal([read(0, "X", None, 1.0)], initial_value=None)

    def test_stale_read_illegal(self):
        seq = [
            write(0, "X", 1, 1.0),
            write(1, "X", 2, 2.0),
            read(2, "X", 1, 3.0),
        ]
        assert not is_legal(seq)
        assert first_legality_violation(seq).value == 1

    def test_read_before_write_illegal(self):
        seq = [read(0, "X", 1, 1.0), write(1, "X", 1, 2.0)]
        assert not is_legal(seq)

    def test_per_object_independence(self):
        seq = [
            write(0, "X", 1, 1.0),
            write(0, "Y", 2, 2.0),
            read(1, "X", 1, 3.0),
            read(1, "Y", 2, 4.0),
        ]
        assert is_legal(seq)

    def test_first_violation_is_first(self):
        seq = [
            write(0, "X", 1, 1.0),
            read(1, "X", 99, 2.0),
            read(2, "X", 98, 3.0),
        ]
        assert first_legality_violation(seq).value == 99


class TestRespects:
    def test_pairs_respected(self):
        a, b = write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)
        assert respects([a, b], [(a, b)])
        assert not respects([b, a], [(a, b)])

    def test_pairs_with_missing_ops_ignored(self):
        a, b = write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)
        c = write(2, "Y", 5, 0.5)
        assert respects([a, b], [(c, a)])

    def test_program_order_predicate(self):
        a = write(0, "X", 1, 1.0)
        b = read(0, "X", 1, 2.0)
        c = read(1, "X", 1, 1.5)
        assert respects_program_order([a, c, b])
        assert not respects_program_order([b, c, a])


class TestTimeOrderWitness:
    def test_legal_time_order_is_the_witness(self):
        a = write(0, "X", 1, 1.0)
        b = read(1, "X", 1, 2.0)
        assert time_order_witness(History([b, a])) == [a, b]

    def test_stale_read_in_time_order_gives_none(self):
        h = History(
            [write(0, "X", 1, 1.0), write(1, "X", 2, 2.0), read(2, "X", 1, 3.0)]
        )
        assert time_order_witness(h) is None

    def test_equal_times_keep_program_order(self):
        a = write(0, "X", 1, 1.0)
        b = read(0, "X", 1, 1.0)
        assert time_order_witness(History([a, b])) == [a, b]


class TestReadsFromIn:
    def test_maps_reads_to_writers(self):
        w1 = write(0, "X", 1, 1.0)
        w2 = write(0, "X", 2, 2.0)
        r0 = read(1, "X", 0, 0.5)
        r2 = read(1, "X", 2, 3.0)
        mapping = reads_from_in([r0, w1, w2, r2])
        assert mapping[r0] is None
        assert mapping[r2] is w2


class TestSerializationWrapper:
    def test_covers(self):
        w = write(0, "X", 1, 1.0)
        r = read(1, "X", 1, 2.0)
        s = Serialization([w, r])
        assert s.covers([r, w])
        assert not s.covers([w])

    def test_duplicate_rejected(self):
        w = write(0, "X", 1, 1.0)
        with pytest.raises(ValueError):
            Serialization([w, w])

    def test_len_iter_repr(self):
        w = write(0, "X", 1, 1.0)
        s = Serialization([w])
        assert len(s) == 1
        assert list(s) == [w]
        assert "w0(X)1" in repr(s)
