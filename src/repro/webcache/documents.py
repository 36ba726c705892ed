"""Web documents and their modification processes.

The paper's Section 4 discusses WWW cache consistency as a timed
consistency problem.  We model an origin site holding documents that are
modified by a background process; each modification installs a fresh
unique version string, so web traces can be fed to the same checkers as
object traces (the DESIGN.md substitution for real WWW traces: Zipf
request popularity plus heavy-tailed modification intervals preserve the
shape the TTL-vs-invalidation comparisons depend on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.kernel import Simulator
from repro.sim.rng import exponential, lognormal


@dataclass
class DocumentVersion:
    """One version of a document: unique body tag + modification time."""

    name: str
    body: str
    last_modified: float


def doc_name(i: int) -> str:
    """Canonical name of the i-th document."""
    return f"doc{i}"


class ModificationProcess:
    """Drives modifications of a document set at the origin.

    Two interval models: ``"exponential"`` (memoryless updates, rate per
    document scaled by popularity rank so hot documents change faster —
    the adversarial case for weak consistency) and ``"lognormal"``
    (heavy-tailed quiet periods, the Alex/adaptive-TTL-friendly case).
    """

    def __init__(
        self,
        sim: Simulator,
        origin,
        n_docs: int,
        rng,
        mean_interval: float = 5.0,
        model: str = "exponential",
    ) -> None:
        if model not in ("exponential", "lognormal"):
            raise ValueError(f"unknown modification model {model!r}")
        self.sim = sim
        self.origin = origin
        self.n_docs = n_docs
        self.rng = rng
        self.mean_interval = mean_interval
        self.model = model
        self._counter = 0
        for i in range(n_docs):
            sim.process(self._modify_loop(i), name=f"modify:{doc_name(i)}")

    def _interval(self, rank: int) -> float:
        mean = self.mean_interval * (1.0 + rank / 4.0)
        if self.model == "exponential":
            return exponential(self.rng, 1.0 / mean)
        return lognormal(self.rng, mean, sigma=1.0)

    def _modify_loop(self, rank: int) -> Generator:
        name = doc_name(rank)
        while True:
            yield self.sim.timeout(self._interval(rank))
            self._counter += 1
            self.origin.install(name, f"{name}#v{self._counter}", self.sim.now)
