"""Tests for JSON trace I/O, the ASCII renderer and the CLI."""

import io
import json

import pytest

from repro.cli import main
from repro.clocks.vector import VectorTimestamp
from repro.core.history import History, HistoryError
from repro.core.io import (
    dumps_history,
    history_from_dict,
    history_to_dict,
    load_history,
    operation_from_dict,
    operation_to_dict,
)
from repro.core.operations import read, write
from repro.core.render import render_serialization, render_timeline
from repro.paperdata import figure1, figure5


class TestHistoryIO:
    def test_roundtrip_preserves_operations(self):
        h = figure5()
        again = load_history(io.StringIO(dumps_history(h)))
        assert len(again) == len(h)
        original = sorted(
            (op.kind.value, op.site, op.obj, str(op.value), op.time) for op in h
        )
        restored = sorted(
            (op.kind.value, op.site, op.obj, str(op.value), op.time) for op in again
        )
        assert original == restored

    def test_roundtrip_preserves_verdicts(self):
        from repro.checkers import check_sc, check_tsc

        h = figure5()
        again = load_history(io.StringIO(dumps_history(h)))
        assert check_sc(again).satisfied == check_sc(h).satisfied
        assert check_tsc(again, 50.0).satisfied == check_tsc(h, 50.0).satisfied

    def test_ltime_roundtrip(self):
        op = write(0, "x", "v", 1.0, ltime=VectorTimestamp((1, 2)))
        restored = operation_from_dict(operation_to_dict(op))
        assert restored.ltime == VectorTimestamp((1, 2))

    def test_interval_roundtrip(self):
        op = read(0, "x", 0, 5.0, start=4.0, end=6.0)
        restored = operation_from_dict(operation_to_dict(op))
        assert restored.start == 4.0 and restored.end == 6.0

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            operation_from_dict({"kind": "w", "site": 0})

    def test_unserializable_ltime_rejected(self):
        from repro.clocks.lamport import ScalarTimestamp

        op = write(0, "x", "v", 1.0, ltime=ScalarTimestamp(3, 0))
        with pytest.raises(ValueError):
            operation_to_dict(op)

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "operations": [
                {"kind": "r", "site": 0, "obj": "x", "value": 99, "time": 1.0}
            ]
        }))
        with pytest.raises(HistoryError):
            load_history(str(path))
        assert len(load_history(str(path), validate=False)) == 1

    def test_file_object_io(self):
        h = figure1()
        buffer = io.StringIO()
        from repro.core.io import dump_history

        dump_history(h, buffer)
        buffer.seek(0)
        assert len(load_history(buffer)) == len(h)

    def test_initial_value_preserved(self):
        h = History([read(0, "x", None, 1.0)], initial_value=None)
        assert history_from_dict(history_to_dict(h)).initial_value is None


class TestRenderer:
    def test_every_label_appears(self):
        h = figure1()
        out = render_timeline(h, width=90)
        for op in h.operations:
            assert op.label() in out

    def test_one_line_per_site_plus_axis(self):
        h = figure1()
        out = render_timeline(h, width=90)
        assert len(out.splitlines()) == len(h.sites) + 1

    def test_mark_adds_caret(self):
        h = figure1()
        last_read = max(h.reads, key=lambda r: r.time)
        out = render_timeline(h, width=90, mark=last_read)
        assert "^" in out

    def test_empty_history(self):
        assert "(empty" in render_timeline(History([]))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_timeline(figure1(), width=5)

    def test_render_serialization(self):
        h = figure1()
        out = render_serialization(sorted(h.operations, key=lambda o: o.time))
        assert "w1(x)1" in out
        assert render_serialization([]) == "(empty serialization)"

    def test_render_serialization_puts_six_labels_on_a_line(self):
        ops = [write(0, "X", i, float(i)) for i in range(8)]
        lines = render_serialization(ops).splitlines()
        assert [line.split() for line in lines] == [
            [f"w0(X){i}" for i in range(6)], ["w0(X)6", "w0(X)7"],
        ]


class TestCli:
    @pytest.fixture
    def trace_path(self, tmp_path):
        from repro.core.io import dump_history

        path = tmp_path / "fig1.json"
        dump_history(figure1(), str(path))
        return str(path)

    def test_check_sc_exit_zero(self, trace_path, capsys):
        assert main(["check", trace_path, "--criterion", "sc"]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_check_tsc_violation_exit_one(self, trace_path, capsys):
        code = main(["check", trace_path, "--criterion", "tsc", "--delta", "100"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "late" in out

    def test_check_tsc_requires_delta(self, trace_path, capsys):
        assert main(["check", trace_path, "--criterion", "tsc"]) == 2

    def test_check_witness_rendering(self, trace_path, capsys):
        code = main(
            ["check", trace_path, "--criterion", "sc", "--witness", "--render"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "witness serialization" in out
        assert "Site 0" in out

    def test_threshold_command(self, trace_path, capsys):
        assert main(["threshold", trace_path]) == 0
        assert "320" in capsys.readouterr().out

    def test_render_command(self, trace_path, capsys):
        assert main(["render", trace_path, "--width", "60"]) == 0
        assert "w0(x)7" in capsys.readouterr().out

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        assert "all claims hold" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", "--deltas", "0.2", "1.0", "--clients", "3", "--ops", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out

    def test_check_json_output(self, trace_path, capsys):
        import json

        code = main(["check", trace_path, "--criterion", "tsc", "--delta",
                     "100", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is False
        assert "late" in payload["violation"]

    def test_threshold_json_output(self, trace_path, capsys):
        import json

        assert main(["threshold", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tsc_threshold"] == 320.0

    def test_sweep_csv_output(self, tmp_path, capsys):
        csv_path = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--deltas", "0.5", "--clients", "2", "--ops",
                     "10", "--csv", csv_path])
        assert code == 0
        import csv

        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "hit_ratio" in rows[0]

    def test_webcache_command(self, capsys):
        code = main(
            ["webcache", "--caches", "2", "--docs", "5", "--requests", "40",
             "--ttls", "0.5"]
        )
        assert code == 0
        assert "PollEveryTime" in capsys.readouterr().out
