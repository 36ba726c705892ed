"""Deterministic discrete-event simulation substrate."""

from repro.sim.kernel import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.network import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    Message,
    Network,
    NetworkStats,
    UniformLatency,
)
from repro.sim.node import Node
from repro.sim.rng import (
    RngRegistry,
    ZipfSampler,
    bounded,
    exponential,
    lognormal,
)
from repro.sim.trace import TraceRecorder, UniqueValueFactory

__all__ = [
    "ConstantLatency",
    "Event",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "Network",
    "NetworkStats",
    "Node",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecorder",
    "UniformLatency",
    "UniqueValueFactory",
    "ZipfSampler",
    "bounded",
    "exponential",
    "lognormal",
]
