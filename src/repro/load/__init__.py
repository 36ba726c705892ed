"""repro.load — coordinated-omission-free load generation.

Open/closed-loop arrival processes, workload mixes, workers recording
intended-start-anchored latencies into exponential-bucket histograms, and a
scenario engine that runs them as tasks on the stack's own loop, with an
SLO gate and a binary-search max-sustainable-throughput mode.  See
docs/LOAD.md.
"""

from repro.load.arrivals import (
    ArrivalError,
    Burst,
    ClosedLoop,
    FixedRate,
    Poisson,
    Ramp,
    make_arrivals,
    scale_arrivals,
)
from repro.load.engine import (
    FindMaxResult,
    LoadEngineError,
    LoadReport,
    run_find_max,
    run_scenario,
)
from repro.load.report import (
    compare_bench,
    load_bench_json,
    render_report,
    write_bench_json,
)
from repro.load.scenario import Scenario, ScenarioError
from repro.load.worker import LoadWorker, PhasePlan, PhaseStats
from repro.load.workload import (
    HotsetKeys,
    UniformKeys,
    WorkloadError,
    WorkloadMix,
    ZipfianKeys,
    make_workload,
)

__all__ = [
    "ArrivalError",
    "Burst",
    "ClosedLoop",
    "FindMaxResult",
    "FixedRate",
    "HotsetKeys",
    "LoadEngineError",
    "LoadReport",
    "LoadWorker",
    "PhasePlan",
    "PhaseStats",
    "Poisson",
    "Ramp",
    "Scenario",
    "ScenarioError",
    "UniformKeys",
    "WorkloadError",
    "WorkloadMix",
    "ZipfianKeys",
    "compare_bench",
    "load_bench_json",
    "make_arrivals",
    "make_workload",
    "render_report",
    "run_find_max",
    "run_scenario",
    "scale_arrivals",
    "write_bench_json",
]
