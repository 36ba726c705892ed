"""`repro check --stats`: JSON output shape and the 0/1/2/3 exit codes."""

import json

import pytest

from repro.checkers import check_sc
from repro.cli import main
from repro.core.io import dump_history
from repro.paperdata import figure1, figure5


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    with open(path, "w") as fh:
        dump_history(figure1(), fh)
    return str(path)


@pytest.fixture
def fig5_path(tmp_path):
    path = tmp_path / "fig5.json"
    with open(path, "w") as fh:
        dump_history(figure5(), fh)
    return str(path)


@pytest.fixture
def engine_path(tmp_path, engine_history):
    path = tmp_path / "engine.json"
    with open(path, "w") as fh:
        dump_history(engine_history, fh)
    return str(path)


class TestExitCodes:
    def test_satisfied_exits_zero(self, fig1_path):
        assert main(["check", fig1_path, "--criterion", "sc"]) == 0

    def test_violated_exits_one(self, fig5_path):
        assert main([
            "check", fig5_path, "--criterion", "tsc", "--delta", "50",
        ]) == 1

    def test_tsc_without_delta_exits_two(self, fig5_path, capsys):
        assert main(["check", fig5_path, "--criterion", "tsc"]) == 2
        assert "--delta" in capsys.readouterr().err

    def test_budget_exhaustion_exits_three(self, engine_path, capsys):
        code = main([
            "check", engine_path, "--criterion", "sc", "--budget", "0",
        ])
        assert code == 3
        assert "UNKNOWN" in capsys.readouterr().out

    def test_the_budget_reaches_the_default_engine(self, engine_path, capsys):
        assert main(["check", engine_path, "--criterion", "cc",
                     "--budget", "0"]) == 3
        assert "UNKNOWN" in capsys.readouterr().out

    def test_no_budget_binds_where_the_write_order_decides(self, fig5_path):
        assert main(["check", fig5_path, "--criterion", "sc",
                     "--budget", "0"]) == 0


class TestJsonShape:
    def test_stats_payload_shape(self, engine_path, engine_history, capsys):
        assert main([
            "check", engine_path, "--criterion", "sc", "--stats", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "criterion": "sc",
            "satisfied": True,
            "unknown": False,
            "violation": None,
            "parameters": {},
            "states_explored": check_sc(engine_history).states_explored,
        }
        # Neither the time order nor the write order decides: the engine ran.
        assert payload["states_explored"] >= 1

    def test_constraint_engine_omits_search_breakdown(self, fig1_path, capsys):
        assert main([
            "check", fig1_path, "--criterion", "sc", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "states_explored" not in payload
        assert "stats" not in payload

    def test_violated_json_carries_violation(self, fig5_path, capsys):
        assert main([
            "check", fig5_path, "--criterion", "tsc", "--delta", "50",
            "--stats", "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is False
        assert payload["violation"]
        assert payload["parameters"]["delta"] == 50.0
        # A late read decides TSC before any serialization is sought.
        assert payload["states_explored"] == 0

    def test_unknown_json_shape(self, engine_path, capsys):
        assert main([
            "check", engine_path, "--criterion", "sc", "--budget", "0", "--json",
        ]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "criterion": "sc",
            "satisfied": None,
            "unknown": True,
            "violation": None,
            "budget": 0,
        }

    def test_stats_text_mode_prints_breakdown(
        self, engine_path, engine_history, capsys
    ):
        assert main([
            "check", engine_path, "--criterion", "sc", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "search stats:" in out
        nodes = check_sc(engine_history).states_explored
        assert f"  states: {nodes} (constraint-engine branch nodes)" in out

    def test_the_method_option_is_gone(self, fig1_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", fig1_path, "--method", "search"])
        assert exited.value.code == 2
        assert "--method" in capsys.readouterr().err
