"""Cluster membership state: who is alive, and which ring is in force.

A :class:`ClusterView` is each member's local belief about the
deployment: one :class:`MemberInfo` per member (state + incarnation) and
the **monotone ring epoch** — the layout version of the ring currently
in force.  Views are disseminated epidemically: every SWIM probe frame
(:mod:`repro.cluster.swim`) piggybacks the sender's view, the receiver
merges it, and the merge rules below make the gossip converge no matter
the order or duplication of deliveries.

**Incarnation numbers** (SWIM's refutation mechanism).  Only a member
itself may increment its own incarnation.  A suspicion is always issued
at the suspect's *current* incarnation; the suspect refutes it by
re-announcing itself alive at ``incarnation + 1``, which supersedes the
suspicion everywhere it spreads.  The precedence, for one member:

* ``alive@i``   supersedes ``alive@j``/``suspect@j`` iff ``i > j``;
* ``suspect@i`` supersedes ``alive@j`` iff ``i >= j``, and
  ``suspect@j`` iff ``i > j``;
* ``dead@i`` / ``left@i`` supersede everything except an existing
  dead/left record — death is terminal for a member id; a revived
  process rejoins under a fresh id.

These are exactly the SWIM rules; they form a join-semilattice per
member, so merging is commutative, associative, and idempotent —
convergence needs no ordering guarantees from the transport.

**Ring epoch.**  ``ring_epoch`` only moves forward: it is the newest
layout version this member has heard of.  Gossip spreads the *epoch*
(cheap, every frame); the layout itself lives on the member's server
(``server.engine.ring``) and is pulled on demand with a ``ring-fetch``
frame by whoever notices its epoch is behind — routers and servers
alike (docs/CLUSTER.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Member lifecycle states.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

STATES = (ALIVE, SUSPECT, DEAD, LEFT)

#: States that terminate a member id (no refutation possible).
TERMINAL = frozenset({DEAD, LEFT})


@dataclass
class MemberInfo:
    """One member's record inside a :class:`ClusterView`."""

    id: int
    address: str = ""  #: ``host:port`` of the member's object server
    incarnation: int = 0
    state: str = ALIVE
    since: float = 0.0  #: local monotonic instant of the last transition

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"member id must be non-negative, got {self.id}")
        if self.incarnation < 0:
            raise ValueError(
                f"incarnation must be non-negative, got {self.incarnation}"
            )
        if self.state not in STATES:
            raise ValueError(f"state must be one of {STATES}, got {self.state!r}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "address": self.address,
            "incarnation": self.incarnation, "state": self.state,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MemberInfo":
        return cls(
            id=int(data["id"]), address=str(data.get("address", "")),
            incarnation=int(data.get("incarnation", 0)),
            state=str(data.get("state", ALIVE)),
        )


def supersedes(
    state: str, incarnation: int, old_state: str, old_incarnation: int
) -> bool:
    """Whether ``(state, incarnation)`` overrides ``(old_state,
    old_incarnation)`` for one member, under the SWIM precedence."""
    if old_state in TERMINAL:
        return False  # terminal states never roll back
    if state in TERMINAL:
        return True  # death/leave overrides any live incarnation
    if state == SUSPECT:
        if old_state == ALIVE:
            return incarnation >= old_incarnation
        return incarnation > old_incarnation  # suspect vs suspect
    # state == ALIVE: only a refutation (strictly newer incarnation) wins
    return incarnation > old_incarnation


class ClusterView:
    """One node's membership belief plus the ring epoch in force.

    Mutation happens through :meth:`update` (one record, applied iff it
    supersedes) and :meth:`merge` (a whole gossiped view); both return
    what actually *changed*, because the callers — the SWIM agent, the
    coordinator — act on transitions, not on states.
    """

    def __init__(
        self,
        members: Optional[Dict[int, MemberInfo]] = None,
        ring_epoch: int = 0,
    ) -> None:
        self.members: Dict[int, MemberInfo] = dict(members or {})
        self.ring_epoch = ring_epoch

    # -- queries -------------------------------------------------------------

    def ids(self, *states: str) -> List[int]:
        """Member ids in the given states (all members when none given)."""
        wanted = set(states) if states else set(STATES)
        return sorted(
            m.id for m in self.members.values() if m.state in wanted
        )

    def alive(self) -> List[int]:
        return self.ids(ALIVE)

    def probe_targets(self, self_id: int) -> List[int]:
        """Who a probe loop should cycle over: everyone not terminal and
        not ourselves (suspects keep being probed — an ack refutes)."""
        return [
            m for m in self.ids(ALIVE, SUSPECT) if m != self_id
        ]

    def coordinator(self) -> Optional[int]:
        """The failover authority: the lowest-id member not terminal and
        not currently under suspicion.  Deterministic over the same
        view, so converged members agree without an election."""
        alive = self.alive()
        return alive[0] if alive else None

    def get(self, member_id: int) -> Optional[MemberInfo]:
        return self.members.get(member_id)

    # -- mutation ------------------------------------------------------------

    def update(
        self, info: MemberInfo, *, now: float = 0.0
    ) -> Optional[Tuple[Optional[str], str]]:
        """Apply one member record iff it supersedes what we hold.

        Returns ``(old_state, new_state)`` when something changed
        (``old_state`` is ``None`` for a first appearance — a join),
        else ``None``.
        """
        held = self.members.get(info.id)
        if held is None:
            self.members[info.id] = MemberInfo(
                info.id, info.address, info.incarnation, info.state, now
            )
            return (None, info.state)
        if not supersedes(
            info.state, info.incarnation, held.state, held.incarnation
        ):
            return None
        old_state = held.state
        changed = old_state != info.state or held.incarnation != info.incarnation
        if not changed:
            return None
        held.incarnation = info.incarnation
        if info.address:
            held.address = info.address
        if old_state != info.state:
            held.state = info.state
            held.since = now
            return (old_state, info.state)
        return None  # same state, newer incarnation: no transition

    def merge(
        self, payload: Dict[str, Any], *, now: float = 0.0
    ) -> List[Tuple[int, Optional[str], str]]:
        """Merge a gossiped wire payload; returns the transitions it
        caused as ``(member_id, old_state, new_state)`` tuples.  The
        ring epoch advances monotonically; the layout itself is *not*
        carried by gossip (fetch it from whoever announced the epoch).
        """
        transitions: List[Tuple[int, Optional[str], str]] = []
        for record in payload.get("members", []):
            info = MemberInfo.from_dict(record)
            change = self.update(info, now=now)
            if change is not None:
                transitions.append((info.id, change[0], change[1]))
        self.ring_epoch = max(self.ring_epoch, int(payload.get("ring_epoch", 0)))
        return transitions

    # -- wire form -----------------------------------------------------------

    def wire_payload(self) -> Dict[str, Any]:
        """What a probe frame piggybacks, and a status endpoint answers:
        member records + ring epoch.  The layout is not here (pull it on
        demand), so every gossip frame stays small."""
        return {
            "members": [
                self.members[m].as_dict() for m in sorted(self.members)
            ],
            "ring_epoch": self.ring_epoch,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterView":
        view = cls(ring_epoch=int(data.get("ring_epoch", 0)))
        for record in data.get("members", []):
            info = MemberInfo.from_dict(record)
            view.members[info.id] = info
        return view

    @classmethod
    def seed(cls, addresses: Dict[int, str]) -> "ClusterView":
        """The bootstrap view every member starts from: all seeds alive
        at incarnation 0."""
        return cls({
            member_id: MemberInfo(member_id, address)
            for member_id, address in addresses.items()
        })
