"""Declarative load scenarios: target, workload, phases, SLO.

A scenario is one JSON file describing a whole experiment (see
docs/LOAD.md for the full schema and ``benchmarks/scenarios/`` for
fixtures):

```json
{
  "name": "ring-smoke",
  "delta": 0.4,
  "workers": 2,
  "seed": 7,
  "target": {"kind": "ring", "servers": 3, "replicas": 2},
  "workload": {"write_fraction": 0.3,
               "keys": {"kind": "zipfian", "n": 32, "theta": 0.99}},
  "phases": [
    {"name": "warmup", "duration": 2,
     "arrivals": {"kind": "fixed", "rate": 40}, "measure": false},
    {"name": "steady", "duration": 10,
     "arrivals": {"kind": "poisson", "rate": 80}}
  ],
  "slo": {"p99_response_s": 0.5, "min_ontime_ratio": 0.9,
          "min_achieved_fraction": 0.8}
}
```

Arrival rates are the **total offered rate across all workers**; the
engine divides by ``workers`` when it writes per-worker configs.  A
phase may carry ``"fault": "kill-primary"`` (requires a clustered ring
target) and the SLO gate only judges phases with ``measure: true``.
``find_max`` configures the binary-search max-sustainable-throughput
mode (`repro load run --find-max`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.load.arrivals import ArrivalError, make_arrivals
from repro.load.workload import WorkloadError, make_workload

KNOWN_FAULTS = ("kill-primary",)


class ScenarioError(ValueError):
    """A malformed scenario file."""


@dataclass
class TargetSpec:
    kind: str = "ring"  # "ring" | "server"
    servers: int = 3
    replicas: int = 2
    part_power: int = 6
    write_quorum: Optional[int] = None
    read_policy: str = "primary"
    cluster: bool = False
    probe_period: float = 0.1
    suspect_timeout: float = 0.3
    server_skew: float = 0.02
    propagation: str = "none"
    pipeline_depth: int = 8

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TargetSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown target fields: {sorted(unknown)}")
        spec = cls(**data)
        if spec.kind not in ("ring", "server"):
            raise ScenarioError(f"target kind must be ring|server, got {spec.kind!r}")
        if spec.kind == "ring" and spec.replicas > spec.servers:
            raise ScenarioError(
                f"replicas {spec.replicas} exceeds servers {spec.servers}"
            )
        return spec


@dataclass
class PhaseSpec:
    name: str
    duration: float
    arrivals: Dict[str, Any]
    measure: bool = True
    fault: Optional[str] = None
    fault_at: float = 0.5  # fraction into the phase

    @classmethod
    def from_dict(cls, index: int, data: Dict[str, Any]) -> "PhaseSpec":
        try:
            spec = cls(
                name=str(data.get("name", f"phase{index}")),
                duration=float(data["duration"]),
                arrivals=dict(data["arrivals"]),
                measure=bool(data.get("measure", True)),
                fault=data.get("fault"),
                fault_at=float(data.get("fault_at", 0.5)),
            )
        except KeyError as missing:
            raise ScenarioError(
                f"phase {index} is missing field {missing}"
            ) from None
        if spec.duration <= 0:
            raise ScenarioError(f"phase {spec.name!r} needs a positive duration")
        if spec.fault is not None and spec.fault not in KNOWN_FAULTS:
            raise ScenarioError(
                f"phase {spec.name!r}: unknown fault {spec.fault!r} "
                f"(known: {KNOWN_FAULTS})"
            )
        if not 0.0 <= spec.fault_at <= 1.0:
            raise ScenarioError(
                f"phase {spec.name!r}: fault_at must be in [0,1]"
            )
        try:
            make_arrivals(spec.arrivals)
        except ArrivalError as exc:
            raise ScenarioError(f"phase {spec.name!r}: {exc}") from None
        return spec


#: SLO fields: each maps a name to (direction, report metric); see
#: :meth:`Scenario.slo_checks`.
SLO_FIELDS = {
    "p50_response_s": "max",
    "p99_response_s": "max",
    "p999_response_s": "max",
    "p99_service_s": "max",
    "min_ontime_ratio": "min",
    "min_achieved_fraction": "min",
    "max_error_fraction": "max",
}


@dataclass
class Scenario:
    name: str
    delta: float
    target: TargetSpec
    workload: Dict[str, Any]
    phases: List[PhaseSpec]
    workers: int = 2
    seed: int = 7
    #: In-flight ops per worker.  1 (the default) keeps each worker a
    #: sequential site, so the merged trace's per-site program order is
    #: real and the timed checkers apply; >1 models pipelined sessions
    #: and should pair with ``criterion: null`` (overlapping ops at one
    #: site fabricate program-order constraints no sequential program
    #: had).  Queueing at concurrency 1 still lands in response time —
    #: capping concurrency does not reintroduce coordinated omission.
    max_concurrency: int = 1
    op_retries: int = 8
    client_skew: float = 0.0
    slo: Dict[str, float] = field(default_factory=dict)
    find_max: Dict[str, Any] = field(default_factory=dict)
    #: criterion the merged trace must satisfy ("tsc" | "tcc" | null)
    criterion: Optional[str] = "tsc"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        try:
            phases_raw = data["phases"]
        except KeyError:
            raise ScenarioError("scenario needs a 'phases' list") from None
        if not phases_raw:
            raise ScenarioError("scenario needs at least one phase")
        scenario = cls(
            name=str(data.get("name", "scenario")),
            delta=float(data.get("delta", 1.0)),
            target=TargetSpec.from_dict(dict(data.get("target", {}))),
            workload=dict(data.get("workload", {})),
            phases=[
                PhaseSpec.from_dict(i, p) for i, p in enumerate(phases_raw)
            ],
            workers=int(data.get("workers", 2)),
            seed=int(data.get("seed", 7)),
            max_concurrency=int(data.get("max_concurrency", 1)),
            op_retries=int(data.get("op_retries", 8)),
            client_skew=float(data.get("client_skew", 0.0)),
            slo={k: float(v) for k, v in dict(data.get("slo", {})).items()},
            find_max=dict(data.get("find_max", {})),
            criterion=data.get("criterion", "tsc"),
        )
        if scenario.workers < 1:
            raise ScenarioError("need at least one worker")
        if scenario.delta <= 0:
            raise ScenarioError(f"delta must be positive, got {scenario.delta}")
        if scenario.criterion not in ("tsc", "tcc", None):
            raise ScenarioError(
                f"criterion must be tsc|tcc|null, got {scenario.criterion!r}"
            )
        unknown_slo = set(scenario.slo) - set(SLO_FIELDS)
        if unknown_slo:
            raise ScenarioError(
                f"unknown SLO fields: {sorted(unknown_slo)} "
                f"(known: {sorted(SLO_FIELDS)})"
            )
        for phase in scenario.phases:
            if phase.fault == "kill-primary" and not (
                scenario.target.kind == "ring" and scenario.target.cluster
            ):
                raise ScenarioError(
                    "kill-primary needs a ring target with cluster: true"
                )
        try:
            make_workload(scenario.workload)
        except WorkloadError as exc:
            raise ScenarioError(f"workload: {exc}") from None
        if not any(p.measure for p in scenario.phases):
            raise ScenarioError("at least one phase must have measure: true")
        return scenario

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(data)

    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)

    def describe(self) -> Dict[str, Any]:
        """The config echo that lands in reports and BENCH_load.json."""
        return {
            "name": self.name,
            "delta": self.delta,
            "workers": self.workers,
            "seed": self.seed,
            "max_concurrency": self.max_concurrency,
            "criterion": self.criterion,
            "target": {
                k: v for k, v in self.target.__dict__.items() if v is not None
            },
            "workload": self.workload,
            "phases": [
                {
                    "name": p.name,
                    "duration": p.duration,
                    "arrivals": p.arrivals,
                    "measure": p.measure,
                    **(
                        {"fault": p.fault, "fault_at": p.fault_at}
                        if p.fault else {}
                    ),
                }
                for p in self.phases
            ],
            "slo": self.slo,
        }
