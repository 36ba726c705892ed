"""Simulated message-passing network with pluggable latency models.

Nodes exchange :class:`Message` envelopes; the network samples a delivery
latency per message from a :class:`LatencyModel` (optionally dropping a
fraction), counts traffic for the cost benches, and delivers by invoking
``on_message`` on the destination node.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol

from repro.sim.kernel import Simulator
from repro.sim.rng import lognormal


@dataclass
class Message:
    """An envelope: source, destination, a type tag and a payload dict."""

    src: int
    dst: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    send_time: float = 0.0
    size: int = 1

    def __repr__(self) -> str:
        return f"Message({self.kind} {self.src}->{self.dst} @{self.send_time:g})"


class Receiver(Protocol):
    """Anything that can receive messages from the network."""

    node_id: int

    def on_message(self, message: Message) -> None:
        ...


class LatencyModel(ABC):
    """Samples a one-way delivery latency per message."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        ...


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``latency`` seconds."""

    def __init__(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.latency = latency

    def sample(self, rng: random.Random) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Uniform in [low, high]."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency: ``base + LogNormal(median, sigma)``."""

    def __init__(self, median: float, sigma: float = 0.5, base: float = 0.0) -> None:
        self.median = median
        self.sigma = sigma
        self.base = base

    def sample(self, rng: random.Random) -> float:
        return self.base + lognormal(rng, self.median, self.sigma)


@dataclass
class NetworkStats:
    """Traffic counters for the cost benches."""

    messages_sent: int = 0
    messages_dropped: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1


class Network:
    """Delivers messages between registered nodes through the simulator.

    ``drop_probability`` models an unreliable network (messages vanish);
    protocol layers that need reliability must retry.  Per-message latency
    comes from ``latency_model`` via the seeded ``rng``.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_model: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability}")
        self.sim = sim
        self.latency_model = latency_model or ConstantLatency(0.01)
        self.rng = rng or random.Random(0)
        self.drop_probability = drop_probability
        self.nodes: Dict[int, Receiver] = {}
        self.stats = NetworkStats()
        self._partitioned: set = set()

    def register(self, node: Receiver) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self.nodes[node.node_id] = node

    def send(self, src: int, dst: int, kind: str, payload=None, size: int = 1) -> Message:
        """Send a message; delivery is scheduled after a sampled latency."""
        if dst not in self.nodes:
            raise KeyError(f"unknown destination node {dst}")
        message = Message(
            src=src,
            dst=dst,
            kind=kind,
            payload=payload or {},
            send_time=self.sim.now,
            size=size,
        )
        self.stats.record_send(message)
        if src in self._partitioned or dst in self._partitioned:
            self.stats.messages_dropped += 1
            return message
        if self.drop_probability and self.rng.random() < self.drop_probability:
            self.stats.messages_dropped += 1
            return message
        latency = self.latency_model.sample(self.rng)
        self.sim.schedule(latency, self._deliver, message)
        return message

    def _deliver(self, message: Message) -> None:
        self.stats.messages_delivered += 1
        self.nodes[message.dst].on_message(message)

    def partition(self, node_id: int) -> None:
        """Disconnect a node: every message to or from it is dropped
        until :meth:`heal` (models mobile disconnection, Section 4's
        CC-suits-mobility discussion)."""
        self._partitioned.add(node_id)

    def heal(self, node_id: int) -> None:
        """Reconnect a previously partitioned node."""
        self._partitioned.discard(node_id)

    def broadcast(self, src: int, kind: str, payload=None, size: int = 1) -> int:
        """Send to every registered node except the source; returns count."""
        count = 0
        for node_id in sorted(self.nodes):
            if node_id != src:
                self.send(src, node_id, kind, payload, size)
                count += 1
        return count
