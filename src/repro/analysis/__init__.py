"""Measurement and reporting: staleness metrics, sweeps, tables."""

from repro.analysis.metrics import (
    StalenessReport,
    read_staleness,
    staleness_report,
    timedness_report,
)
from repro.analysis.charts import dual_chart
from repro.analysis.stats import (
    mean,
    stddev,
    stderr,
)
from repro.analysis.sweep import (
    delta_cost_sweep,
    policy_comparison,
    run_cluster_experiment,
    variant_comparison,
)
from repro.analysis.tables import format_cell, print_table, render_table, write_csv

__all__ = [
    "StalenessReport",
    "delta_cost_sweep",
    "dual_chart",
    "format_cell",
    "mean",
    "policy_comparison",
    "print_table",
    "read_staleness",
    "render_table",
    "run_cluster_experiment",
    "staleness_report",
    "stddev",
    "stderr",
    "timedness_report",
    "variant_comparison",
    "write_csv",
]
