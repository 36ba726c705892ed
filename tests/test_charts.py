"""Tests for the ASCII chart helpers."""

from repro.analysis.charts import dual_chart


ROWS = [
    {"delta": 0.1, "cost": 2.0, "stale": 0.0},
    {"delta": 1.0, "cost": 1.0, "stale": 0.5},
    {"delta": 4.0, "cost": 0.5, "stale": 1.0},
]


class TestDualChart:
    def test_structure(self):
        out = dual_chart(ROWS, label="delta", left="cost", right="stale", width=8)
        lines = out.splitlines()
        assert "cost" in lines[0] and "stale" in lines[0]
        assert len(lines) == 1 + len(ROWS)
        # Opposite trends: first row all-left, last row all-right.
        assert lines[1].count("█") >= lines[3].split("|")[1].count("█")

    def test_empty(self):
        assert dual_chart([], "x", "a", "b") == "(no rows)"
