"""The consistent-hash partition ring (Swift's ``account.builder`` idea).

An object name is hashed with md5 (stable across interpreter runs and
machines — ``PYTHONHASHSEED`` never enters placement) and the top
``part_power`` bits select one of ``2**part_power`` *partitions*.  The
ring assigns every partition to ``replicas`` distinct devices, in
proportion to device weights; the first assigned device is the
partition's **primary** (the single authoritative server the lifetime
protocol's correctness argument relies on), the rest are its replicas.

Two classes:

* :class:`RingBuilder` — the mutable, serializable builder: add/remove/
  reweight devices, then :meth:`RingBuilder.rebalance` to (re)compute
  the assignment with the minimal partition moves.  Builders round-trip
  through JSON (``save``/``load``) so a deployment can be versioned like
  Swift's ``swift-ring-builder account.builder`` files.
* :class:`Ring` — the immutable view handed to routers and directories:
  ``partition_for`` / ``replicas_for`` / ``primary_for``.

The rebalance algorithm is deterministic (no RNG): assignment slots are
kept wherever they remain legal, overloaded devices are trimmed down to
``ceil(target)``, and freed slots go to the device with the largest
weight deficit (ties broken by smallest device id).  Adding one device
therefore moves only the partitions the new device must receive;
removing one moves only the partitions it held — the "minimal partition
moves" property the tests assert.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Serialization format version of builder/ring files.
FORMAT_VERSION = 1


@functools.lru_cache(maxsize=1 << 16)
def stable_hash(name: str) -> int:
    """A deterministic 64-bit hash of an object name.

    md5 of the UTF-8 bytes, top 8 bytes, big-endian — identical across
    interpreter restarts, ``PYTHONHASHSEED`` values, and platforms,
    unlike Python's builtin ``hash()``.  Cached (bounded): a routed read
    asks for the same name's replicas more than once.
    """
    digest = hashlib.md5(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Device:
    """One storage device (= one lifetime-protocol server) on the ring."""

    id: int
    weight: float = 1.0
    zone: int = 0
    address: str = ""  #: ``host:port`` for the TCP stack; unused by the sim

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"device id must be non-negative, got {self.id}")
        if self.weight < 0:
            raise ValueError(f"device weight must be non-negative, got {self.weight}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id, "weight": self.weight,
            "zone": self.zone, "address": self.address,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Device":
        return cls(
            id=int(data["id"]), weight=float(data.get("weight", 1.0)),
            zone=int(data.get("zone", 0)), address=str(data.get("address", "")),
        )


class Ring:
    """An immutable partition -> devices map, addressed by object name.

    ``epoch`` is the ring's **monotone layout version**: every rebalance
    or failover produces a ring with a strictly larger epoch, servers
    stamp their replies with the epoch they serve, and routers treat any
    higher epoch they observe as "my layout is stale — refresh before
    routing more writes" (docs/CLUSTER.md).  Epoch 0 is the pre-cluster
    legacy value; old serialized rings load as epoch 0.
    """

    def __init__(
        self,
        part_power: int,
        replicas: int,
        devices: Dict[int, Device],
        assignment: Sequence[Sequence[int]],
        epoch: int = 0,
    ) -> None:
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self.part_power = part_power
        self.replicas = replicas
        self.epoch = epoch
        self.devices = dict(devices)
        self.assignment: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(slots) for slots in assignment
        )
        self._part_shift = 64 - part_power
        if len(self.assignment) != 2 ** part_power:
            raise ValueError(
                f"assignment has {len(self.assignment)} partitions, "
                f"expected {2 ** part_power}"
            )

    @property
    def partitions(self) -> int:
        return len(self.assignment)

    def device(self, dev_id: int) -> Device:
        return self.devices[dev_id]

    def device_ids(self) -> List[int]:
        return sorted(self.devices)

    def partition_for(self, obj: str) -> int:
        """The partition an object name hashes into."""
        return stable_hash(obj) >> self._part_shift

    def replicas_for(self, obj: str) -> Tuple[int, ...]:
        """All devices holding ``obj`` — primary first."""
        return self.assignment[stable_hash(obj) >> self._part_shift]

    def primary_for(self, obj: str) -> int:
        """The object's single authoritative device."""
        return self.assignment[stable_hash(obj) >> self._part_shift][0]

    def load(self) -> Dict[int, int]:
        """Assigned partition-replica count per device."""
        counts = {dev_id: 0 for dev_id in self.devices}
        for slots in self.assignment:
            for dev_id in slots:
                counts[dev_id] += 1
        return counts

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT_VERSION,
            "part_power": self.part_power,
            "replicas": self.replicas,
            "epoch": self.epoch,
            "devices": [self.devices[d].as_dict() for d in sorted(self.devices)],
            "assignment": [list(slots) for slots in self.assignment],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Ring":
        devices = {
            int(d["id"]): Device.from_dict(d) for d in data["devices"]  # type: ignore[index]
        }
        return cls(
            int(data["part_power"]), int(data["replicas"]),
            devices, data["assignment"],  # type: ignore[arg-type]
            epoch=int(data.get("epoch", 0)),  # pre-epoch files load as 0
        )

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(json.dumps(self.as_dict()))

    @classmethod
    def load_file(cls, path: Union[str, pathlib.Path]) -> "Ring":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


@dataclass
class RingBuilder:
    """Mutable ring configuration; :meth:`rebalance` produces a :class:`Ring`.

    ``part_power`` fixes the partition count at ``2**part_power`` for the
    builder's lifetime (Swift's rule: pick it for the deployment's
    eventual size).  ``replicas`` is the replication factor N; a builder
    needs at least N devices with positive weight before it can balance.
    """

    part_power: int
    replicas: int = 1
    devices: Dict[int, Device] = field(default_factory=dict)
    #: Epoch of the last ring this builder produced; each
    #: :meth:`rebalance` hands out ``epoch + 1`` so layout versions stay
    #: monotone across the builder's whole life (and across save/load).
    epoch: int = 0
    _assignment: Optional[List[List[Optional[int]]]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.part_power <= 32:
            raise ValueError(
                f"part_power must be in [1, 32], got {self.part_power}"
            )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")

    @property
    def partitions(self) -> int:
        return 2 ** self.part_power

    # -- membership ----------------------------------------------------------

    def add_device(
        self,
        dev_id: Optional[int] = None,
        weight: float = 1.0,
        zone: int = 0,
        address: str = "",
    ) -> int:
        """Add a device; returns its id (auto-assigned when omitted)."""
        if dev_id is None:
            dev_id = max(self.devices, default=-1) + 1
        if dev_id in self.devices:
            raise ValueError(f"device {dev_id} already on the ring")
        self.devices[dev_id] = Device(dev_id, weight, zone, address)
        return dev_id

    def remove_device(self, dev_id: int) -> None:
        if dev_id not in self.devices:
            raise KeyError(f"device {dev_id} not on the ring")
        del self.devices[dev_id]

    def set_weight(self, dev_id: int, weight: float) -> None:
        if weight < 0:
            raise ValueError(f"device weight must be non-negative, got {weight}")
        self.devices[dev_id].weight = weight

    def _active(self) -> List[Device]:
        return sorted(
            (d for d in self.devices.values() if d.weight > 0),
            key=lambda d: d.id,
        )

    # -- the rebalance -------------------------------------------------------

    def rebalance(self) -> Tuple[Ring, int]:
        """(Re)compute the assignment; returns ``(ring, moved_slots)``.

        ``moved_slots`` counts (partition, replica) slots whose device
        changed relative to the previous rebalance (0 on the first).
        """
        active = self._active()
        if len(active) < self.replicas:
            raise ValueError(
                f"need at least {self.replicas} devices with positive "
                f"weight, have {len(active)}"
            )
        total_weight = sum(d.weight for d in active)
        parts, replicas = self.partitions, self.replicas
        target = {
            d.id: parts * replicas * d.weight / total_weight for d in active
        }
        ceiling = {dev_id: math.ceil(t) for dev_id, t in target.items()}
        active_ids = set(target)

        old = self._assignment
        if old is None:
            new: List[List[Optional[int]]] = [
                [None] * replicas for _ in range(parts)
            ]
        else:
            new = [list(slots) for slots in old]

        # Pass 1: clear slots that are no longer legal — device gone,
        # weight zeroed, or the same device twice in one partition.
        load = {dev_id: 0 for dev_id in active_ids}
        for slots in new:
            seen = set()
            for r in range(replicas):
                dev_id = slots[r]
                if dev_id is None or dev_id not in active_ids or dev_id in seen:
                    slots[r] = None
                else:
                    seen.add(dev_id)
                    load[dev_id] += 1

        # Pass 2: trim overloaded devices down to ceil(target), freeing
        # slots from the highest partitions first (deterministic order).
        # At most one trim per partition per sweep, and partitions that
        # already have empty slots are trimmed only as a last resort:
        # freeing two slots of one partition forces the refill to pair
        # the incoming device with an old one (the distinct-replica
        # constraint), which would surface as a spurious old-to-old move.
        # A slot is freed only when some *underloaded* device could take
        # it (is not already in the partition), and only as many slots as
        # the underloaded devices can absorb — otherwise the refill would
        # hand freed slots to already-satisfied devices, i.e. churn.
        budget = sum(
            ceiling[d] - load[d] for d in active_ids if load[d] < ceiling[d]
        )
        max_free = 0
        while budget > 0 and max_free < replicas:
            if not any(load[d] > ceiling[d] for d in active_ids):
                break
            needy = {d for d in active_ids if load[d] < target[d]}
            freed_any = False
            for part in range(parts - 1, -1, -1):
                if budget <= 0:
                    break
                slots = new[part]
                if sum(1 for s in slots if s is None) > max_free:
                    continue
                present = {s for s in slots if s is not None}
                if not (needy - present):
                    continue  # no underloaded device may enter this partition
                for r in range(replicas - 1, -1, -1):
                    dev_id = slots[r]
                    if dev_id is not None and load[dev_id] > ceiling[dev_id]:
                        slots[r] = None
                        load[dev_id] -= 1
                        budget -= 1
                        freed_any = True
                        break  # one trim per partition per sweep
            if not freed_any:
                max_free += 1

        # Pass 3: fill every empty slot with the neediest legal device.
        for slots in new:
            present = {dev_id for dev_id in slots if dev_id is not None}
            for r in range(replicas):
                if slots[r] is not None:
                    continue
                best = None
                best_key = None
                for dev_id in active_ids:
                    if dev_id in present:
                        continue
                    key = (target[dev_id] - load[dev_id], -dev_id)
                    if best_key is None or key > best_key:
                        best, best_key = dev_id, key
                assert best is not None  # len(active) >= replicas
                slots[r] = best
                present.add(best)
                load[best] += 1

        moved = 0
        if old is not None:
            for part in range(parts):
                for r in range(replicas):
                    if old[part][r] is not None and old[part][r] != new[part][r]:
                        moved += 1
        self._assignment = new
        self.epoch += 1
        ring = Ring(
            self.part_power, replicas,
            {d.id: Device(d.id, d.weight, d.zone, d.address) for d in active},
            [[dev_id for dev_id in slots] for slots in new],
            epoch=self.epoch,
        )
        return ring, moved

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_ring(cls, ring: Ring) -> "RingBuilder":
        """A builder whose state *is* the given ring — the stateless path
        a failover coordinator uses: reconstruct, mutate, rebalance, and
        the move list is minimal relative to the ring actually in force
        (no separately maintained builder file to drift out of sync).
        Partitions whose slot count fell below ``replicas`` (a degraded
        failover ring) load as empty slots the next rebalance refills."""
        builder = cls(ring.part_power, ring.replicas, epoch=ring.epoch)
        for device in ring.devices.values():
            builder.devices[device.id] = Device(
                device.id, device.weight, device.zone, device.address
            )
        builder._assignment = [
            list(slots) + [None] * (ring.replicas - len(slots))
            for slots in ring.assignment
        ]
        return builder

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT_VERSION,
            "part_power": self.part_power,
            "replicas": self.replicas,
            "epoch": self.epoch,
            "devices": [self.devices[d].as_dict() for d in sorted(self.devices)],
            "assignment": self._assignment,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RingBuilder":
        builder = cls(
            int(data["part_power"]), int(data["replicas"]),
            epoch=int(data.get("epoch", 0)),
        )
        for dev in data.get("devices", []):  # type: ignore[union-attr]
            device = Device.from_dict(dev)
            builder.devices[device.id] = device
        assignment = data.get("assignment")
        if assignment is not None:
            builder._assignment = [list(slots) for slots in assignment]  # type: ignore[union-attr]
        return builder

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(json.dumps(self.as_dict()))

    @classmethod
    def load_file(cls, path: Union[str, pathlib.Path]) -> "RingBuilder":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def uniform_ring(
    n_devices: int,
    part_power: int = 8,
    replicas: int = 1,
    device_ids: Optional[Sequence[int]] = None,
    addresses: Optional[Sequence[str]] = None,
) -> Ring:
    """An equal-weight ring over ``n_devices`` — the common quick path."""
    builder = RingBuilder(part_power, replicas)
    ids = list(device_ids) if device_ids is not None else list(range(n_devices))
    if len(ids) != n_devices:
        raise ValueError(f"need {n_devices} device ids, got {len(ids)}")
    for index, dev_id in enumerate(ids):
        address = addresses[index] if addresses is not None else ""
        builder.add_device(dev_id, weight=1.0, address=address)
    ring, _ = builder.rebalance()
    return ring
