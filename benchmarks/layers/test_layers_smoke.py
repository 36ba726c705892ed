"""Smoke test of the benchmark itself (not part of tier-1).

    pytest benchmarks/layers -q

Runs ``run.py --smoke`` once (about 15 s) and checks that it produced
every metric ``BENCHMARK.json`` names, finite and under the right unit,
every span name, a bill that adds up, and passing gates.  The
``pytest.ini`` beside this file keeps ``benchmarks/conftest.py`` — which
truncates ``benchmarks/latest_results.txt`` — out of the run.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))  # spans.py imports what it wraps

from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), done.stdout


def test_registry_matches_the_workloads(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == [w.name for w in WORKLOADS]
    assert benchmark_json["paths"] == ["benchmarks/layers"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in benchmark_json["end_to_end"])


def test_every_metric_is_present_finite_and_printed(benchmark_json, smoke):
    results, stdout = smoke
    for spec in WORKLOADS:
        summary = results["workloads"][spec.name]
        for section in ("end_to_end", "per_layer"):
            for metric in benchmark_json[section]:
                value = summary[section][metric["name"]]["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    spec.name, metric["name"], value)
                assert f"{metric['name']:<34}" in stdout
                assert f" {metric['unit']}" in stdout
        for metric in benchmark_json["end_to_end"]:
            assert summary["end_to_end"][metric["name"]]["value"] > 0


def test_gates_pass(smoke):
    results, _ = smoke
    for name, summary in results["workloads"].items():
        assert summary["gates"]["failures"] == [], name
        assert summary["gates"]["tsc_satisfied"] is True, name
        assert summary["per_layer"]["failed_op_share"]["value"] == 0
        assert summary["per_layer"]["late_read_share"]["value"] == 0
    durable = results["workloads"]["write_durable"]["per_layer"]
    assert durable["store.recovered_write_share"]["value"] == 1.0


def test_bill_adds_up_to_traced_cpu(smoke):
    results, _ = smoke
    for name, summary in results["workloads"].items():
        *lines, (label, total) = summary["bill"]
        assert label.startswith("cpu_us_per_op")
        assert sum(value for _, value in lines) == pytest.approx(total, rel=0.05), name
        residual = summary["per_layer"]["net.drivers.residual_us_per_op"]["value"]
        assert 0 < residual < total, (name, residual, total)


def test_bill_has_the_expected_shape(smoke):
    results, _ = smoke
    layers = {name: s["per_layer"] for name, s in results["workloads"].items()}
    for name, per_layer in layers.items():
        stored = per_layer["store.busy_us_per_op"]["value"]
        routed = per_layer["ring.self_us_per_op"]["value"]
        assert (stored > 0) == (name == "write_durable"), name
        assert (routed > 0) == (name == "ring_mixed"), name
    bill = dict(results["workloads"]["write_durable"]["bill"][:-3])
    assert max(bill, key=bill.get) == "store.busy_us_per_op"


def test_trace_files_hold_every_span_name(smoke):
    from spans import SPAN_NAMES

    seen = set()
    for spec in WORKLOADS:
        with open(os.path.join(HERE, "out", f"trace_{spec.name}.jsonl"),
                  encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                seen.add(span["name"])
                assert span["end"] >= span["start"]
    # write coalescing is off (batch=0), so the batch log path never runs
    assert seen == set(SPAN_NAMES) - {"store.log_writes"}
