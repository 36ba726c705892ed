"""Workload generators: cluster driver processes and random histories."""

from repro.workloads.access import (
    read_heavy_hotspot,
    uniform_workload,
)
from repro.workloads.random_history import (
    random_history,
    random_linearizable_history,
    random_replica_history,
    random_sc_history,
)
from repro.workloads.ticker import CNN, DOW_JONES, ticker_workload
from repro.workloads.virtual_env import avatar_name, virtual_env_workload

__all__ = [
    "CNN",
    "DOW_JONES",
    "avatar_name",
    "random_history",
    "random_linearizable_history",
    "random_replica_history",
    "random_sc_history",
    "read_heavy_hotspot",
    "ticker_workload",
    "uniform_workload",
    "virtual_env_workload",
]
