"""Unit tests for the consistent-hash ring, its builder and the
``repro ring`` commands that drive it."""

import contextlib
import hashlib
import io
import math

import pytest

from repro.cli import main
from repro.ring import (
    Device,
    Ring,
    RingBuilder,
    stable_hash,
)
from repro.ring.ring import uniform_ring


class TestStableHash:
    def test_known_vector(self):
        # md5("x")[:8] big-endian — pinned so any hash change is loud:
        # every persisted ring file depends on it.
        assert stable_hash("x") == 0x9DD4E461268C8034

    def test_deterministic_across_calls(self):
        assert stable_hash("account/container/object") == stable_hash(
            "account/container/object"
        )

    def test_distinct_names_scatter(self):
        hashes = {stable_hash(f"obj{i}") for i in range(200)}
        assert len(hashes) == 200

    def test_the_cache_is_bounded_and_changes_no_placement(self):
        """A routed read hashes its key more than once, so the hash is
        cached; the md5 it caches must still decide every placement."""
        assert stable_hash.cache_info().maxsize is not None
        md5_hash = stable_hash.__wrapped__
        ring = uniform_ring(5, part_power=8, replicas=3)
        shift = 64 - ring.part_power
        for i in range(10_000):
            name = f"acct/cont/obj{i}"
            assert ring.replicas_for(name) == ring.assignment[md5_hash(name) >> shift]
            assert ring.replicas_for(name) == ring.replicas_for(name)


class TestRing:
    def test_partition_in_range(self):
        ring = uniform_ring(3, part_power=6)
        for i in range(100):
            assert 0 <= ring.partition_for(f"o{i}") < 64

    def test_primary_is_first_replica(self):
        ring = uniform_ring(4, part_power=6, replicas=3)
        for i in range(50):
            obj = f"o{i}"
            assert ring.primary_for(obj) == ring.replicas_for(obj)[0]

    def test_replicas_are_distinct_devices(self):
        ring = uniform_ring(4, part_power=6, replicas=3)
        for slots in ring.assignment:
            assert len(set(slots)) == len(slots) == 3

    def test_identical_builds_agree(self):
        a, b = uniform_ring(5, part_power=7, replicas=2), uniform_ring(
            5, part_power=7, replicas=2
        )
        assert a.assignment == b.assignment

    def test_uniform_load_within_ceiling(self):
        ring = uniform_ring(3, part_power=8, replicas=2)
        target = 256 * 2 / 3
        for count in ring.load().values():
            assert count <= math.ceil(target)

    def test_weighted_device_gets_proportional_share(self):
        builder = RingBuilder(part_power=8, replicas=1)
        builder.add_device(0, weight=1.0)
        builder.add_device(1, weight=3.0)
        ring, _ = builder.rebalance()
        load = ring.load()
        assert load[1] == pytest.approx(3 * load[0], rel=0.05)

    def test_zero_weight_device_gets_nothing(self):
        builder = RingBuilder(part_power=6, replicas=1)
        builder.add_device(0)
        builder.add_device(1, weight=0.0)
        ring, _ = builder.rebalance()
        assert 1 not in ring.load()

    def test_roundtrip_through_json(self, tmp_path):
        ring = uniform_ring(3, part_power=5, replicas=2,
                            addresses=["a:1", "b:2", "c:3"])
        path = tmp_path / "demo.ring"
        ring.save(path)
        loaded = Ring.load_file(path)
        assert loaded.assignment == ring.assignment
        assert loaded.device(1).address == "b:2"
        for i in range(20):
            assert loaded.replicas_for(f"o{i}") == ring.replicas_for(f"o{i}")


class TestRingBuilder:
    def test_needs_replicas_devices(self):
        builder = RingBuilder(part_power=4, replicas=3)
        builder.add_device(0)
        builder.add_device(1)
        with pytest.raises(ValueError, match="at least 3"):
            builder.rebalance()

    def test_rejects_bad_part_power(self):
        with pytest.raises(ValueError):
            RingBuilder(part_power=0)
        with pytest.raises(ValueError):
            RingBuilder(part_power=33)

    def test_rejects_duplicate_device(self):
        builder = RingBuilder(part_power=4)
        builder.add_device(0)
        with pytest.raises(ValueError, match="already"):
            builder.add_device(0)

    def test_auto_ids_are_sequential(self):
        builder = RingBuilder(part_power=4)
        assert [builder.add_device() for _ in range(3)] == [0, 1, 2]

    def test_remove_unknown_device_raises(self):
        with pytest.raises(KeyError):
            RingBuilder(part_power=4).remove_device(7)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Device(0, weight=-1.0)

    def test_builder_roundtrip_preserves_assignment(self, tmp_path):
        builder = RingBuilder(part_power=6, replicas=2)
        for i in range(3):
            builder.add_device(i)
        ring, _ = builder.rebalance()
        path = tmp_path / "demo.builder"
        builder.save(path)
        reloaded = RingBuilder.load_file(path)
        ring2, moved = reloaded.rebalance()
        assert moved == 0  # a loaded builder rebalances to the same ring
        assert ring2.assignment == ring.assignment


def slot_moves(old, new):
    """``(partition, replica, src, dst)`` of every slot whose device
    changed between two rings of one shape."""
    return [
        (part, replica, src, dst)
        for part, (before, after) in enumerate(zip(old.assignment, new.assignment))
        for replica, (src, dst) in enumerate(zip(before, after))
        if src != dst
    ]


class TestMinimalMoves:
    """Adding/removing/reweighting moves only the partitions it must."""

    def _builder(self, n=3, replicas=2, part_power=7):
        builder = RingBuilder(part_power, replicas)
        for i in range(n):
            builder.add_device(i)
        builder.rebalance()
        return builder

    def _change(self, builder, mutate):
        """The ring before and after ``mutate`` + rebalance, and the slot
        diff, whose length the builder's own count must match."""
        old, _ = builder.rebalance()
        mutate(builder)
        new, moved = builder.rebalance()
        moves = slot_moves(old, new)
        assert moved == len(moves)
        return old, new, moves

    def test_add_device_moves_only_to_the_new_device(self):
        _, new_ring, moves = self._change(self._builder(), lambda b: b.add_device())
        assert moves  # the new device did receive load
        assert all(dst == 3 for _, _, _, dst in moves)
        assert len(moves) == new_ring.load()[3]
        # ... and no more than its fair ceiling.
        assert len(moves) <= math.ceil(128 * 2 / 4)

    def test_remove_device_moves_only_its_partitions(self):
        old, _, moves = self._change(
            self._builder(n=4), lambda b: b.remove_device(2)
        )
        assert all(src == 2 for _, _, src, _ in moves)
        assert len(moves) == old.load()[2]

    def test_reweight_up_moves_only_toward_the_device(self):
        _, _, moves = self._change(self._builder(), lambda b: b.set_weight(1, 2.0))
        assert moves
        assert all(dst == 1 for _, _, _, dst in moves)

    def test_reweight_down_moves_only_away_from_the_device(self):
        _, _, moves = self._change(self._builder(), lambda b: b.set_weight(1, 0.5))
        assert moves
        assert all(src == 1 for _, _, src, _ in moves)

    def test_moved_slot_count_matches_diff(self):
        builder = self._builder()
        ring, _ = builder.rebalance()
        builder.add_device(3)
        new_ring, moved = builder.rebalance()
        assert moved == len(slot_moves(ring, new_ring))

    def test_sequential_growth_stays_minimal(self):
        builder = self._builder(n=2, replicas=1)
        for next_id in (2, 3, 4):
            _, _, moves = self._change(builder, lambda b: b.add_device())
            assert all(dst == next_id for _, _, _, dst in moves)

    def test_partition_move_fields(self):
        from repro.cluster import PartitionMove

        move = PartitionMove(partition=5, replica=1, src=0, dst=2)
        assert (move.partition, move.replica, move.src, move.dst) == (5, 1, 0, 2)


#: ``repro ring build``, two ``add``s and four ``rebalance``s on one
#: builder file, and every line they print (trailing blanks stripped):
#: how the commands drive the builder may change, what they say may not.
CLI_STEPS = [
    ["build", "c.builder", "--devices", "3", "--replicas", "2",
     "--part-power", "4", "--ring", "c.ring"],
    ["add", "c.builder", "--ring", "c.ring"],
    ["add", "c.builder", "--id", "7", "--weight", "2.0", "--zone", "1",
     "--address", "127.0.0.1:9"],
    ["rebalance", "c.builder", "--set-weight", "1=2.0", "--ring", "c.ring"],
    ["rebalance", "c.builder", "--remove", "0"],
    ["rebalance", "c.builder", "--set-weight", "2=0.5", "--remove", "7"],
    ["rebalance", "c.builder"],
]
CLI_LINES = """\
wrote c.builder
wrote c.ring

ring: 2^4 partitions x 2 replicas, 0 slots moved
device  weight  zone  address  partitions
------  ------  ----  -------  ----------
0       1       0     -        11
1       1       0     -        11
2       1       0     -        10
updated c.builder
wrote c.ring
device 3 joined: 8 slots moved (8 to the new device)

ring: 2^4 partitions x 2 replicas, 8 slots moved
device  weight  zone  address  partitions
------  ------  ----  -------  ----------
0       1       0     -        8
1       1       0     -        8
2       1       0     -        8
3       1       0     -        8
updated c.builder
device 7 joined: 8 slots moved (8 to the new device)

ring: 2^4 partitions x 2 replicas, 8 slots moved
device  weight  zone  address      partitions
------  ------  ----  -----------  ----------
0       1       0     -            6
1       1       0     -            6
2       1       0     -            6
3       1       0     -            6
7       2       1     127.0.0.1:9  8
updated c.builder
wrote c.ring
3 slots moved

ring: 2^4 partitions x 2 replicas
device  weight  zone  address      partitions
------  ------  ----  -----------  ----------
0       1       0     -            5
1       2       0     -            9
2       1       0     -            5
3       1       0     -            5
7       2       1     127.0.0.1:9  8
updated c.builder
5 slots moved

ring: 2^4 partitions x 2 replicas
device  weight  zone  address      partitions
------  ------  ----  -----------  ----------
1       2       0     -            11
2       1       0     -            5
3       1       0     -            5
7       2       1     127.0.0.1:9  11
updated c.builder
13 slots moved

ring: 2^4 partitions x 2 replicas
device  weight  zone  address  partitions
------  ------  ----  -------  ----------
1       2       0     -        16
2       0.5     0     -        6
3       1       0     -        10
rebalanced in place: 0 slots moved
updated c.builder

ring: 2^4 partitions x 2 replicas
device  weight  zone  address  partitions
------  ------  ----  -------  ----------
1       2       0     -        16
2       0.5     0     -        6
3       1       0     -        10
"""
#: SHA-256 of the builder file the steps leave: the same slots and the
#: same epoch, so the same sequence of rebalances.
CLI_BUILDER_SHA256 = (
    "9b06ce187a15b98f3576832a2846470a25f7d758b577623b841974d3549eecda"
)


class TestRingCli:
    def test_build_add_and_rebalance_print_the_pinned_lines(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for step in CLI_STEPS:
                assert main(["ring", *step]) == 0
        got = [line.rstrip() for line in out.getvalue().splitlines()]
        assert got == CLI_LINES.splitlines()
        builder = (tmp_path / "c.builder").read_bytes()
        assert hashlib.sha256(builder).hexdigest() == CLI_BUILDER_SHA256

    def test_a_bare_rebalance_counts_what_settles_on_load(
        self, tmp_path, monkeypatch
    ):
        """Removing a device leaves the saved builder at 37/54/37
        partitions; the next command's load-time rebalance settles it at
        32/64/32, and a bare ``rebalance`` reports those moves."""
        monkeypatch.chdir(tmp_path)
        for step in (
            ["build", "b", "--devices", "3", "--replicas", "2",
             "--part-power", "6"],
            ["add", "b", "--id", "7"],
            ["rebalance", "b", "--set-weight", "1=2.0"],
            ["rebalance", "b", "--remove", "7"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["ring", *step]) == 0
        def assignment():
            return RingBuilder.load_file("b").as_dict()["assignment"]

        def loads(slots):
            flat = [dev for row in slots for dev in row]
            return [flat.count(dev) for dev in (0, 1, 2)]

        before = assignment()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ring", "rebalance", "b"]) == 0
        after = assignment()
        moved = sum(a != b for old, new in zip(before, after)
                    for a, b in zip(old, new))
        assert (loads(before), loads(after), moved) == (
            [37, 54, 37], [32, 64, 32], 10)
        assert "rebalanced in place: 10 slots moved" in out.getvalue()
