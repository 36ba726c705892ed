"""``examples/live_monitoring.py`` makes a claim; this holds it to it.

At seed 23 the plain SC protocol, watched by the live judge at 0.5 s,
raises exactly as many alerts as the offline judge finds late reads, and
the TSC(0.5) protocol on the same workload raises none."""

import importlib.util
import math
import pathlib

from repro.core.timed import late_reads

EXAMPLE = pathlib.Path(__file__).parent.parent / "examples" / "live_monitoring.py"


def load_example():
    spec = importlib.util.spec_from_file_location("live_monitoring", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sc_alerts_match_the_offline_late_reads():
    example = load_example()
    cluster, live = example.run_with_monitor("sc", math.inf, seed=23)
    history = cluster.history()
    counts = live.ontime.counts
    assert counts["late"] == len(late_reads(history, example.DELTA)) == 81
    assert counts["on_time"] + counts["late"] == len(history.reads)
    assert counts["unjudged"] == 0


def test_tsc_raises_no_alert():
    example = load_example()
    cluster, live = example.run_with_monitor("tsc", example.DELTA, seed=23)
    counts = live.ontime.counts
    assert counts["late"] == 0
    assert counts["on_time"] == len(cluster.history().reads)
    assert late_reads(cluster.history(), example.DELTA) == []
