"""Server sites: long-term storage for objects (Section 5.1).

Each object has an authoritative server (``ObjectDirectory`` maps object
names onto a server ring).  A server stores the current version of each of
its objects and answers:

* ``FETCH`` — reply with a copy of the current version, with its ending
  time advanced to the server's present (the server holds the newest
  version, so it is valid *now*);
* ``VALIDATE`` — the if-modified-since exchange of Section 5.2: if the
  client's start time still matches, reply ``STILL_VALID`` (cheap control
  message) advancing the ending/checking time; otherwise ship the new
  version;
* ``WRITE`` — install a client's write-through if it is newer than the
  stored version (physical: larger start time wins; causal: causally later
  wins, with a deterministic total tiebreak for concurrent writes);
* ``VALIDATE_BATCH`` — many validations in one message, per-item
  results (the engine answers it for either driver; only the TCP
  client sends one).

The protocol logic lives in the transport-free engines of
:mod:`repro.engine`; :class:`SimServer` is the one *simulator driver*
for both of them.  A simulator message's payload *is* an engine frame:
the driver runs it through ``execute`` and sends what comes back
(propagation first, then the reply — preserving the simulator's
historical event order), and the cache engines at the other end read
the same frames, so nothing is translated on the way.  The TCP driver
(:class:`repro.net.server.NetObjectServer`) runs the *same* engine,
which is what the conformance suite asserts.

Requests are executed **exactly once**: the engine's LRU reply cache —
keyed ``(client, req)`` — replays answered requests, so a retransmitted
write (even with several writes outstanding, where the old one-deep
per-client memo failed) is installed once and every retransmission
returns the original ``alpha``.

Optional *push propagation* (Section 5.2's asynchronous component): on
install, push the fresh version — or a small invalidation, per policy —
to every subscribed client.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Any, Callable, Dict, List

from repro.engine import ERROR, CausalServerEngine, ServerEngine, messages
from repro.sim.kernel import Simulator
from repro.sim.network import Message, Network
from repro.sim.node import Node


class PushPolicy(enum.Enum):
    """What a server does towards subscribers when a write is installed."""

    NONE = "none"  # clients discover staleness themselves (pull)
    INVALIDATE = "invalidate"  # send small invalidations (Cao & Liu style)
    PUSH = "push"  # ship the new version eagerly


class ObjectDirectory:
    """Maps object names to server node ids.

    A thin adapter over a :class:`repro.ring.Ring`: each object hashes
    (md5-based :func:`repro.ring.stable_hash` — deterministic across
    interpreter runs, ``PYTHONHASHSEED`` never enters placement) into a
    partition whose *primary* device is the object's single
    authoritative server.  Pass ``ring`` to use a custom ring (weighted
    devices, ``replicas > 1`` for the net stack's replicated placement);
    by default an equal-weight ring over ``server_ids`` is built with
    ``part_power`` partition bits and one replica, which preserves the
    original single-authority semantics the simulator's correctness
    argument relies on.
    """

    def __init__(
        self,
        server_ids: List[int],
        part_power: int = 8,
        replicas: int = 1,
        ring=None,
    ) -> None:
        if not server_ids:
            raise ValueError("need at least one server")
        self.server_ids = sorted(server_ids)
        if ring is None:
            from repro.ring.ring import uniform_ring

            ring = uniform_ring(
                len(self.server_ids), part_power=part_power,
                replicas=replicas, device_ids=self.server_ids,
            )
        else:
            unknown = set(ring.device_ids()) - set(self.server_ids)
            if unknown:
                raise ValueError(
                    f"ring devices {sorted(unknown)} are not in "
                    f"server_ids {self.server_ids}"
                )
        self.ring = ring

    def server_for(self, obj: str) -> int:
        """The object's authoritative (primary) server."""
        return self.ring.primary_for(obj)

    def replicas_for(self, obj: str):
        """All servers holding the object — primary first."""
        return self.ring.replicas_for(obj)


class SimServer(Node):
    """Authoritative store on the simulator — the driver over whichever
    server engine it is handed (``make_engine(clock, wall=...)``).  It
    only moves messages; see the engines' docstrings for the protocol."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        make_engine: Callable[..., Any],
        push_policy: PushPolicy = PushPolicy.NONE,
        clock=None,
    ) -> None:
        super().__init__(node_id, sim, network, clock)
        self.push_policy = push_policy
        self.engine = make_engine(self.local_time, wall=lambda: self.sim.now)
        self.subscribers: List[int] = []

    # -- engine state, readable through the driver -------------------------------

    @property
    def store(self) -> Dict[str, Any]:
        return self.engine.store

    @property
    def writes_installed(self) -> int:
        return self.engine.writes_installed

    @property
    def writes_discarded(self) -> int:
        return self.engine.writes_discarded

    @property
    def requests(self) -> int:
        return self.engine.requests

    @property
    def dedup_replays(self) -> int:
        return self.engine.dedup_replays

    def subscribe(self, client_id: int) -> None:
        if client_id not in self.subscribers:
            self.subscribers.append(client_id)

    # -- message handling ------------------------------------------------------

    def on_message(self, message: Message) -> None:
        frame = {"kind": message.kind, **message.payload}
        # A retransmission of an answered request is replayed by the
        # engine: the original reply (same alpha / true_time), nothing
        # executed — in particular, never re-installed (a re-install after
        # an interleaved competing write would resurrect the old value).
        result = self.engine.execute(message.src, frame)
        reply = result.reply
        if reply["kind"] == ERROR:  # a harness bug, not a protocol event
            raise ValueError(f"{self!r} cannot handle {message.kind}: {reply}")
        # Propagate before the ack: the simulator's historical event
        # order, which timed-consistency checkers of push traces rely on.
        for version in result.installed:
            self._propagate(version, exclude=message.src)
        self._send_frame(message.src, reply)

    def _send_frame(self, dst: int, frame: Dict[str, Any]) -> None:
        kind = frame["kind"]
        self.send(dst, kind, frame, size=messages.size_of(kind))

    def _propagate(self, version: Any, exclude: int) -> None:
        if self.push_policy is PushPolicy.NONE:
            return
        for client_id in self.subscribers:
            if client_id == exclude:
                continue
            if self.push_policy is PushPolicy.PUSH:
                self._send_frame(client_id, self.engine.push_frame(version))
            else:
                self._send_frame(client_id, self.engine.invalidate_frame(version))


def PhysicalServer(
    node_id: int,
    sim: Simulator,
    network: Network,
    initial_value: Any = 0,
    push_policy: PushPolicy = PushPolicy.NONE,
    clock=None,
) -> SimServer:
    """Authoritative store for the SC/TSC (physical-clock) protocols: a
    :class:`SimServer` over :class:`repro.engine.ServerEngine`."""
    make_engine = partial(ServerEngine, initial_value=initial_value)
    return SimServer(node_id, sim, network, make_engine, push_policy, clock)


def CausalServer(
    node_id: int,
    sim: Simulator,
    network: Network,
    vector_width: int,
    initial_value: Any = 0,
    push_policy: PushPolicy = PushPolicy.NONE,
    clock=None,
    zero_timestamp=None,
) -> SimServer:
    """Authoritative store for the CC/TCC (logical-clock) protocols: a
    :class:`SimServer` over :class:`repro.engine.CausalServerEngine`
    (see its docstring for the knowledge-vector / ending-time soundness
    argument)."""
    make_engine = partial(
        CausalServerEngine, vector_width=vector_width,
        initial_value=initial_value, zero_timestamp=zero_timestamp,
    )
    return SimServer(node_id, sim, network, make_engine, push_policy, clock)
