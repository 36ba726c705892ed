"""The surface the layered benchmark (``benchmarks/layers``) reaches.

``run.py --smoke`` finds a moved name only after a push, in its own CI
step; this test finds it in tier-1, in seconds.  In a subprocess (the
tracer's patches are never undone) it imports ``rep.py`` and
``spans.py``, installs the tracer — whose ``getattr`` fails on any
method it wraps that moved — and, for each workload, builds the stack,
warms every device connection with ``validate_many(KEYS)``, reads the
counters and the stack's epsilon, and closes it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERS = ROOT / "benchmarks" / "layers"

SCRIPT = """
import asyncio, math, os, sys

import rep
import spans
from workloads import KEYS, WORKLOADS

spans.Tracer().install()


async def main(root):
    for spec in WORKLOADS:
        stack = await rep.build_stack(spec, os.path.join(root, spec.name))
        try:
            for client in stack.clients:
                values = await client.validate_many(KEYS)
                assert set(values) == set(KEYS), spec.name
            counts = rep.counters(stack)
            assert counts["client.validations"] + counts["client.fetches"] > 0
            assert math.isfinite(stack.epsilon) and stack.epsilon > 0
            print(spec.name, len(stack.clients), "ok")
        finally:
            await stack.close()


asyncio.run(main(sys.argv[1]))
"""


@pytest.mark.net(timeout=120)
def test_every_workload_builds_warms_counts_and_closes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(LAYERS), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-3000:]
    registered = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    built = [line.split()[0] for line in done.stdout.splitlines()]
    assert built == [workload["name"] for workload in registered]
