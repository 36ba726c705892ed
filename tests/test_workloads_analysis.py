"""Tests for workload generators and the analysis helpers."""

import math
import random

import pytest

from repro.analysis.metrics import (
    StalenessReport,
    read_staleness,
    staleness_report,
    timedness_report,
)
from repro.analysis.tables import format_cell, print_table, render_table, write_csv
from repro.core.history import History
from repro.core.operations import read, write
from repro.protocol import Cluster
from repro.workloads import (
    random_history,
    random_linearizable_history,
    random_replica_history,
    random_sc_history,
    read_heavy_hotspot,
    uniform_workload,
)


class TestReadStaleness:
    def test_fresh_read_zero(self):
        h = History([write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)])
        assert read_staleness(h, h.reads[0]) == 0.0

    def test_superseded_read(self):
        h = History(
            [
                write(0, "X", 1, 1.0),
                write(0, "X", 2, 3.0),
                read(1, "X", 1, 5.0),
            ]
        )
        assert read_staleness(h, h.reads[0]) == pytest.approx(2.0)

    def test_initial_value_staleness(self):
        h = History([write(0, "X", 1, 2.0), read(1, "X", 0, 5.0)])
        assert read_staleness(h, h.reads[0]) == pytest.approx(3.0)

    def test_future_write_does_not_count(self):
        h = History(
            [
                write(0, "X", 1, 1.0),
                read(1, "X", 1, 2.0),
                write(0, "X", 2, 3.0),
            ]
        )
        assert read_staleness(h, h.reads[0]) == 0.0

    def test_earliest_superseder_counts(self):
        h = History(
            [
                write(0, "X", 1, 1.0),
                write(0, "X", 2, 2.0),
                write(0, "X", 3, 4.0),
                read(1, "X", 1, 5.0),
            ]
        )
        assert read_staleness(h, h.reads[0]) == pytest.approx(3.0)


class TestStalenessReport:
    def test_aggregates(self):
        report = StalenessReport([0.0, 1.0, 3.0, 0.0])
        assert report.mean == 1.0
        assert report.maximum == 3.0
        assert report.stale_fraction == 0.5

    def test_percentile(self):
        report = StalenessReport(list(map(float, range(1, 101))))
        assert report.percentile(0.5) == 50.0
        assert report.percentile(0.99) == 99.0
        assert report.percentile(1.0) == 100.0
        with pytest.raises(ValueError):
            report.percentile(1.5)

    def test_empty(self):
        report = StalenessReport([])
        assert report.mean == 0.0
        assert report.maximum == 0.0
        assert report.percentile(0.9) == 0.0


class TestTimednessReport:
    def test_counts_late_reads(self):
        h = History(
            [
                write(0, "X", 1, 1.0),
                write(0, "X", 2, 2.0),
                read(1, "X", 1, 100.0),
                read(1, "X", 2, 101.0),
            ]
        )
        report = timedness_report(h, 10.0)
        assert report["late_reads"] == 1
        assert report["late_fraction"] == 0.5
        assert report["threshold"] == pytest.approx(98.0)


class TestTables:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.123456) == "0.1235"
        assert format_cell(float("inf")) == "inf"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(12345.6) == "1.23e+04"
        assert format_cell("x") == "x"

    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        out = render_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_empty_keeps_the_title(self):
        assert render_table([], title="T") == "T\n(no rows)"

    def test_render_selected_columns_in_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        header = render_table(rows, columns=["c", "a"]).splitlines()[0]
        assert header.split() == ["c", "a"]

    def test_print_table_starts_with_a_blank_line(self, capsys):
        rows = [{"a": 1}]
        print_table(rows, title="T")
        assert capsys.readouterr().out == "\n" + render_table(rows, title="T") + "\n"

    def test_write_csv_keeps_the_columns_asked_for(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv([{"a": 1, "b": 2}, {"a": 3}], str(path), columns=["a", "b"])
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,"]
        with pytest.raises(ValueError):
            write_csv([], str(path))


class TestRandomHistoryGenerators:
    def test_linearizable_sizes(self, rng):
        h = random_linearizable_history(rng, n_sites=4, n_objects=3, n_ops=20)
        assert len(h) == 20
        assert len(h.sites) <= 4

    def test_sc_history_preserves_op_multiset(self, rng):
        h = random_sc_history(rng, n_ops=16)
        reads = sum(1 for op in h if op.is_read)
        assert reads + len(h.writes) == 16

    def test_replica_history_structure(self, rng):
        h = random_replica_history(rng, n_writers=2, n_readers=3)
        writer_sites = {op.site for op in h.writes}
        reader_sites = {op.site for op in h.reads}
        assert writer_sites <= {0, 1}
        assert reader_sites <= {2, 3, 4}

    def test_random_history_valid(self, rng):
        h = random_history(rng, n_ops=15)
        assert len(h) == 15  # construction passed validation


class TestClusterWorkloads:
    def _run(self, workload):
        cluster = Cluster(n_clients=3, n_servers=1, variant="sc", seed=0)
        cluster.spawn(workload)
        cluster.run()
        return cluster

    def test_uniform_workload_issues_all_ops(self):
        cluster = self._run(uniform_workload(["A", "B"], n_ops=10))
        stats = cluster.aggregate_stats()
        assert stats.reads + stats.writes == 30

    def test_uniform_workload_validation(self):
        with pytest.raises(ValueError):
            uniform_workload([])
        with pytest.raises(ValueError):
            uniform_workload(["A"], write_fraction=2.0)

    def test_hotspot_workload_hits_hot_object(self):
        cluster = self._run(read_heavy_hotspot(n_ops=40))
        h = cluster.history()
        hot = sum(1 for op in h if op.obj == "hot")
        assert hot > len(h) * 0.4
