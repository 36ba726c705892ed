"""Tests for object versions/lifetimes and the trace recorder."""

import pytest

from repro.clocks.vector import VectorTimestamp
from repro.core.history import HistoryError
from repro.engine.versions import CacheEntry, LogicalVersion, PhysicalVersion
from repro.sim.trace import TraceRecorder, UniqueValueFactory


class TestPhysicalVersion:
    def test_lifetime_validation(self):
        with pytest.raises(ValueError):
            PhysicalVersion("X", 1, alpha=5.0, omega=4.0)

    def test_advance_omega_monotone(self):
        v = PhysicalVersion("X", 1, alpha=1.0, omega=2.0)
        v.advance_omega(5.0)
        assert v.omega == 5.0
        v.advance_omega(3.0)  # no regression
        assert v.omega == 5.0

    def test_copy_is_independent(self):
        a = PhysicalVersion("X", 1, alpha=1.0, omega=2.0)
        b = a.copy()
        b.advance_omega(9.0)
        assert a.omega == 2.0


class TestLogicalVersion:
    def test_advance_omega_joins(self):
        v = LogicalVersion(
            "X", 1, alpha=VectorTimestamp((1, 0)), omega=VectorTimestamp((1, 0))
        )
        v.advance_omega(VectorTimestamp((0, 3)))
        assert list(v.omega) == [1, 3]

    def test_advance_beta(self):
        v = LogicalVersion(
            "X", 1, alpha=VectorTimestamp((1, 0)), omega=VectorTimestamp((1, 0))
        )
        assert v.beta is None
        v.advance_beta(2.0)
        v.advance_beta(1.0)
        assert v.beta == 2.0

    def test_omega_causally_before(self):
        v = LogicalVersion(
            "X", 1, alpha=VectorTimestamp((1, 0)), omega=VectorTimestamp((1, 0))
        )
        assert v.omega_causally_before(VectorTimestamp((2, 1)))
        assert not v.omega_causally_before(VectorTimestamp((0, 5)))  # concurrent
        assert not v.omega_causally_before(VectorTimestamp((1, 0)))  # equal


class TestCacheEntry:
    def test_mark_and_refresh(self):
        v = PhysicalVersion("X", 1, alpha=1.0, omega=2.0)
        entry = CacheEntry(v, fetched_at=1.0)
        entry.old = True
        entry.refresh(PhysicalVersion("X", 2, alpha=3.0, omega=3.0), now=3.0)
        assert not entry.old
        assert entry.version.value == 2
        assert entry.fetched_at == 3.0


class TestTraceRecorder:
    def test_records_and_builds_history(self):
        rec = TraceRecorder()
        rec.record_write(0, "X", "v1", 1.0)
        rec.record_read(1, "X", "v1", 2.0)
        h = rec.history()
        assert len(h) == 2
        assert h.writer_of(h.reads[0]).value == "v1"

    def test_validation_passthrough(self):
        rec = TraceRecorder()
        rec.record_read(0, "X", "never-written", 1.0)
        with pytest.raises(HistoryError):
            rec.history()
        assert len(rec.history(validate=False)) == 1

    def test_clear(self):
        rec = TraceRecorder()
        rec.record_write(0, "X", "v", 1.0)
        rec.clear()
        assert len(rec) == 0

    def test_unique_value_factory(self):
        factory = UniqueValueFactory()
        values = {factory.next_value(i % 3) for i in range(100)}
        assert len(values) == 100
        assert factory.next_value(2).startswith("s2.")
