"""Unit tests for repro.core.operations."""

import pytest

from repro.core.history import History
from repro.core.io import history_to_dict
from repro.core.serialization import time_order_witness
from repro.core.operations import OpKind, Operation, read, write


class TestConstruction:
    def test_read_builder(self):
        op = read(2, "X", 7, 10.5)
        assert op.kind is OpKind.READ
        assert op.is_read and not op.is_write
        assert (op.site, op.obj, op.value, op.time) == (2, "X", 7, 10.5)

    def test_write_builder(self):
        op = write(0, "Y", "v1", 3)
        assert op.kind is OpKind.WRITE
        assert op.is_write and not op.is_read
        assert op.time == 3.0 and isinstance(op.time, float)

    def test_simultaneous_operations_keep_their_position_not_their_age(self):
        # Built in one order, listed in the other: a history (and its
        # effective-time order) breaks the tie by position in what it
        # was given.
        late = write(1, "Y", 2, 1.0)
        early = write(0, "X", 1, 1.0)
        reads = [read(2, "X", 1, 1.0), read(2, "Y", 2, 1.0)]
        ops = [early, late, *reads]
        listed = history_to_dict(History(ops))["operations"]
        assert [(op["site"], op["obj"]) for op in listed] == [
            (0, "X"), (1, "Y"), (2, "X"), (2, "Y")]
        assert time_order_witness(History([early, late])) == [early, late]
        assert time_order_witness(History([late, early])) == [late, early]

    def test_identity_equality(self):
        a = read(0, "X", 1, 1.0)
        b = read(0, "X", 1, 1.0)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError):
            read(-1, "X", 1, 1.0)

    def test_effective_time_within_interval(self):
        op = read(0, "X", 1, 5.0, start=4.0, end=6.0)
        assert op.start == 4.0 and op.end == 6.0

    def test_effective_time_before_start_rejected(self):
        with pytest.raises(ValueError):
            read(0, "X", 1, 3.0, start=4.0)

    def test_effective_time_after_end_rejected(self):
        with pytest.raises(ValueError):
            read(0, "X", 1, 7.0, end=6.0)


class TestPresentation:
    def test_label_matches_paper_style(self):
        assert write(2, "C", 7, 340.0).label() == "w2(C)7"
        assert read(4, "C", 6, 436.0).label() == "r4(C)6"

    def test_repr_contains_time(self):
        assert "@340" in repr(write(2, "C", 7, 340.0))


class TestImmutability:
    def test_frozen(self):
        op = read(0, "X", 1, 1.0)
        with pytest.raises(AttributeError):
            op.value = 2
