"""Fault injection for the real-transport cluster.

The deterministic simulator injects loss and latency inside
:mod:`repro.sim.network`; this is the live counterpart, applied at the
frame layer of a :class:`repro.net.framing.FrameConnection`.  A
:class:`FaultInjector` decides, per outbound frame, how many copies are
delivered and with what extra delay:

* **delay/jitter** — every delivered copy waits ``delay + U(0, jitter)``
  seconds (on top of real network latency);
* **drop** — a copy is lost with probability ``drop_probability``
  (the client repairs losses by retransmission with exponential
  backoff, mirroring ``_RetryMixin`` in the simulator protocol);
* **duplicate** — with probability ``duplicate_probability`` a frame is
  delivered twice (replies are idempotent, duplicates are ignored by
  request id);
* **partition** — while partitioned, *nothing* is delivered, until
  :meth:`FaultInjector.heal` is called.  A partition may be
  **asymmetric**: ``partition("out")`` severs only this side's outbound
  frames and ``partition("in")`` only what it *receives* — the half-open
  link that defeats naive heartbeats (the peer is alive and serving
  others, but its acks never arrive), which is exactly the case SWIM's
  indirect ping-req probing exists to disambiguate (docs/CLUSTER.md).

``kinds`` restricts the injector to specific message kinds — e.g.
delaying only ``push`` frames models slow server-initiated propagation
while request/reply traffic stays healthy, which is exactly the regime
where the paper's delta bound breaks for push designs (cf.
``bench_push_vs_pull``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional


@dataclass
class FaultConfig:
    """Declarative description of an unreliable link."""

    delay: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        for name in ("drop_probability", "duplicate_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass
class FaultStats:
    planned: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    dropped_inbound: int = 0


#: Legal ``direction`` arguments of :meth:`FaultInjector.partition`.
PARTITION_DIRECTIONS = ("both", "out", "in")


class FaultInjector:
    """Samples a delivery plan for each outbound frame.

    :meth:`plan` returns the list of per-copy delays (possibly empty:
    the frame was dropped or the link is partitioned).  The injector is
    intentionally stateless between frames apart from its RNG, so one
    instance may serve a whole connection.
    """

    def __init__(
        self,
        config: FaultConfig,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        self.config = config
        self.kinds: Optional[FrozenSet[str]] = (
            frozenset(kinds) if kinds is not None else None
        )
        self.rng = random.Random(config.seed)
        self.stats = FaultStats()
        self._cut: FrozenSet[str] = frozenset()

    # -- partition control ---------------------------------------------------

    @property
    def partitioned(self) -> bool:
        """True while any direction is severed."""
        return bool(self._cut)

    @property
    def cut_directions(self) -> FrozenSet[str]:
        """The severed directions: subset of ``{"out", "in"}``."""
        return self._cut

    def partition(self, direction: str = "both") -> None:
        """Sever the link: affected frames are silently dropped.

        ``direction`` is ``"both"`` (the classic full partition),
        ``"out"`` (only frames *sent* through this injector are lost) or
        ``"in"`` (only frames *received* by the connection this injector
        is attached to are lost — the half-open link).  Directions
        accumulate: ``partition("out")`` then ``partition("in")`` equals
        ``partition("both")``; :meth:`heal` clears all of them.
        """
        if direction not in PARTITION_DIRECTIONS:
            raise ValueError(
                f"direction must be one of {PARTITION_DIRECTIONS}, "
                f"got {direction!r}"
            )
        add = {"out", "in"} if direction == "both" else {direction}
        self._cut = frozenset(self._cut | add)

    def heal(self) -> None:
        """Restore the link (every severed direction)."""
        self._cut = frozenset()

    def drops_inbound(self, kind: str) -> bool:
        """Whether an arriving frame of ``kind`` is lost to an inbound
        partition (consulted by :class:`FrameConnection` as it cuts each
        frame).  Like the outbound check, a partition severs *every*
        kind, ignoring this injector's kind filter."""
        if "in" not in self._cut:
            return False
        self.stats.dropped_inbound += 1
        return True

    # -- the per-frame decision ----------------------------------------------

    def applies_to(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds

    def _sample_delay(self) -> float:
        cfg = self.config
        if cfg.jitter:
            return cfg.delay + self.rng.uniform(0.0, cfg.jitter)
        return cfg.delay

    def plan(self, kind: str) -> List[float]:
        """Delays of the copies to deliver for one frame of ``kind``."""
        # A partition severs the link for *every* frame, including kinds
        # outside this injector's filter — check it before the kind filter.
        if "out" in self._cut:
            self.stats.planned += 1
            self.stats.dropped += 1
            return []
        if not self.applies_to(kind):
            return [0.0]
        self.stats.planned += 1
        cfg = self.config
        copies = 1
        if cfg.duplicate_probability and self.rng.random() < cfg.duplicate_probability:
            copies = 2
            self.stats.duplicated += 1
        delays: List[float] = []
        for _ in range(copies):
            if cfg.drop_probability and self.rng.random() < cfg.drop_probability:
                self.stats.dropped += 1
                continue
            delay = self._sample_delay()
            if delay > 0:
                self.stats.delayed += 1
            delays.append(delay)
        return delays
