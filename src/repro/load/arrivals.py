"""Seeded, deterministic arrival processes for the load generator.

An **open-loop** process decides *when* each request starts before the
system answers any of them: the schedule is a list of intended start
offsets (seconds from the phase start), fixed once the seed is fixed.
Workers dispatch each operation at its intended time whether or not the
previous one finished — so a server stall piles requests up in the
worker's queue and the *response* latency (measured from the intended
start) shows the stall, instead of the closed-loop behaviour of quietly
issuing fewer requests.  That difference is coordinated omission; see
docs/LOAD.md.

Rates are **per worker**: the scenario engine divides the configured
total offered rate across workers before the schedule is built.

Processes:

* :class:`FixedRate` — one arrival every ``1/rate`` seconds;
* :class:`Poisson` — exponential gaps (``rng.expovariate``), the
  classic open-system model; same seed, same schedule;
* :class:`Ramp` — rate climbs linearly from ``start_rate`` to
  ``end_rate`` across the phase; arrivals are placed by inverting the
  cumulative-rate integral, so the schedule is deterministic;
* :class:`Burst` — a square wave: ``burst_rate`` for the first
  ``duty`` fraction of every ``period``, ``base_rate`` otherwise;
* :class:`ClosedLoop` — the deliberate anti-model: issue the next
  request only after the previous reply plus ``think`` seconds.  Kept
  so the CO distortion can be demonstrated side by side.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List


class ArrivalError(ValueError):
    """A malformed arrival specification."""


class ArrivalProcess:
    """Base class: open-loop unless a subclass says otherwise."""

    open_loop = True
    kind = "abstract"

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        """Intended start offsets in ``[0, duration)``, ascending."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        raise NotImplementedError


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0 or not math.isfinite(value):
        raise ArrivalError(f"{name} must be a positive finite number, got {value}")
    return value


class FixedRate(ArrivalProcess):
    kind = "fixed"

    def __init__(self, rate: float) -> None:
        self.rate = _require_positive("rate", rate)

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        gap = 1.0 / self.rate
        return [i * gap for i in range(int(self.rate * duration))]

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "rate": self.rate}


class Poisson(ArrivalProcess):
    kind = "poisson"

    def __init__(self, rate: float) -> None:
        self.rate = _require_positive("rate", rate)

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        times: List[float] = []
        t = rng.expovariate(self.rate)
        while t < duration:
            times.append(t)
            t += rng.expovariate(self.rate)
        return times

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "rate": self.rate}


class Ramp(ArrivalProcess):
    """Linear rate ramp; arrival ``n`` lands where the cumulative rate
    ``Lambda(t) = a*t + (b - a) * t^2 / (2 * D)`` first reaches ``n``."""

    kind = "ramp"

    def __init__(self, start_rate: float, end_rate: float) -> None:
        self.start_rate = _require_positive("start_rate", start_rate)
        self.end_rate = _require_positive("end_rate", end_rate)

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        a, b = self.start_rate, self.end_rate
        if a == b:
            return FixedRate(a).schedule(duration, rng)
        slope = (b - a) / duration
        total = (a + b) / 2.0 * duration
        times: List[float] = []
        n = 1
        while n <= total:
            # Invert Lambda(t) = n: slope/2 t^2 + a t - n = 0.
            t = (-a + math.sqrt(a * a + 2.0 * slope * n)) / slope
            if t >= duration:
                break
            times.append(t)
            n += 1
        return times

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start_rate": self.start_rate,
            "end_rate": self.end_rate,
        }


class Burst(ArrivalProcess):
    """Square-wave rate: ``burst_rate`` for ``duty * period`` seconds out
    of every ``period``, ``base_rate`` for the rest (``base_rate`` may be
    zero: pure on/off bursts)."""

    kind = "burst"

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        period: float = 1.0,
        duty: float = 0.2,
    ) -> None:
        base_rate = float(base_rate)
        if base_rate < 0 or not math.isfinite(base_rate):
            raise ArrivalError(f"base_rate must be >= 0, got {base_rate}")
        self.base_rate = base_rate
        self.burst_rate = _require_positive("burst_rate", burst_rate)
        self.period = _require_positive("period", period)
        if not 0.0 < duty < 1.0:
            raise ArrivalError(f"duty must be in (0, 1), got {duty}")
        self.duty = float(duty)

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        # Segment boundaries come from integer period counts (never from
        # float modulo, which can yield a zero-length segment and stall).
        segments: List[tuple] = []
        k = 0
        while k * self.period < duration:
            b0 = k * self.period
            b1 = min(b0 + self.duty * self.period, duration)
            segments.append((b0, b1, self.burst_rate))
            if b1 < duration:
                segments.append(
                    (b1, min((k + 1) * self.period, duration), self.base_rate)
                )
            k += 1
        times: List[float] = []
        cum = 0.0  # cumulative expected arrivals at each segment start
        n = 1
        for seg_start, seg_end, rate in segments:
            seg_cum = cum + rate * (seg_end - seg_start)
            if rate > 0:
                while n <= seg_cum:
                    times.append(seg_start + (n - cum) / rate)
                    n += 1
            cum = seg_cum
        return [t for t in times if t < duration]

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "base_rate": self.base_rate,
            "burst_rate": self.burst_rate,
            "period": self.period,
            "duty": self.duty,
        }


class ClosedLoop(ArrivalProcess):
    """No schedule: the worker loops request -> reply -> think.  The
    intended start of each operation *is* its actual start, which is
    exactly how coordinated omission hides server stalls — kept as the
    experimental control, not a recommendation."""

    open_loop = False
    kind = "closed"

    def __init__(self, think: float = 0.0) -> None:
        think = float(think)
        if think < 0:
            raise ArrivalError(f"think must be >= 0, got {think}")
        self.think = think

    def schedule(self, duration: float, rng: random.Random) -> List[float]:
        raise ArrivalError("closed-loop arrivals have no precomputed schedule")

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "think": self.think}


_KINDS = {
    "fixed": lambda spec: FixedRate(spec["rate"]),
    "poisson": lambda spec: Poisson(spec["rate"]),
    "ramp": lambda spec: Ramp(spec["start_rate"], spec["end_rate"]),
    "burst": lambda spec: Burst(
        spec.get("base_rate", 0.0),
        spec["burst_rate"],
        spec.get("period", 1.0),
        spec.get("duty", 0.2),
    ),
    "closed": lambda spec: ClosedLoop(spec.get("think", 0.0)),
}


def make_arrivals(spec: Dict[str, Any]) -> ArrivalProcess:
    """Build an arrival process from its JSON spec (scenario files)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ArrivalError(f"arrival spec needs a 'kind': {spec!r}")
    factory = _KINDS.get(spec["kind"])
    if factory is None:
        raise ArrivalError(
            f"unknown arrival kind {spec['kind']!r} "
            f"(known: {sorted(_KINDS)})"
        )
    try:
        return factory(spec)
    except KeyError as missing:
        raise ArrivalError(
            f"arrival kind {spec['kind']!r} is missing field {missing}"
        ) from None


def scale_arrivals(spec: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """The same arrival spec at ``factor`` times the rate — how the
    engine splits a scenario's *total* offered rate across workers and
    how ``--find-max`` re-rates the probe phases."""
    out = dict(spec)
    for field in ("rate", "start_rate", "end_rate", "base_rate", "burst_rate"):
        if field in out:
            out[field] = out[field] * factor
    make_arrivals(out)  # validate the scaled spec eagerly
    return out
