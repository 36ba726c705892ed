"""Tests for the extended criteria: PRAM, coherence, processor, timed-X."""

import math
import random

import pytest

from repro.checkers import check_cc, check_sc
from repro.checkers.extensions import (
    check_coherence,
    check_pram,
    check_processor,
    check_timed,
)
from repro.core.history import History
from repro.core.operations import read, write


def pram_not_cc():
    """The classic separator: site 2's write depends (causally, through a
    read) on site 0's write, but site 3 sees them in the other order.
    PRAM only protects per-writer order, so it accepts."""
    return History(
        [
            write(0, "X", 1, 1.0),
            read(1, "X", 1, 2.0),
            write(1, "Y", 2, 3.0),
            read(2, "Y", 2, 4.0),
            read(2, "X", 0, 5.0),  # misses the causally-older X write
        ]
    )


def not_pram():
    """One writer's two writes observed out of program order."""
    return History(
        [
            write(0, "X", 1, 1.0),
            write(0, "X", 2, 2.0),
            read(1, "X", 2, 3.0),
            read(1, "X", 1, 4.0),  # sees the earlier write later
        ]
    )


def coherent_not_pram():
    """Per-object orders are fine, but one writer's writes to two
    different objects are seen out of program order."""
    return History(
        [
            write(0, "X", 1, 1.0),
            write(0, "Y", 2, 2.0),
            read(1, "Y", 2, 3.0),
            read(1, "X", 0, 4.0),  # X write not yet seen after Y write
        ]
    )


def pram_not_coherent():
    """Two sites order two concurrent writes to one object differently."""
    return History(
        [
            write(0, "X", 1, 1.0),
            write(1, "X", 2, 1.5),
            read(2, "X", 1, 2.0),
            read(2, "X", 2, 3.0),
            read(3, "X", 2, 2.1),
            read(3, "X", 1, 3.1),
        ]
    )


def cut_by_another_object():
    """Site 0's two X writes with a read of Y between them; site 1 reads
    X = 2 and then X = 1, so it sees site 0's writes out of order."""
    return History(
        [
            write(0, "X", 1, 1.0),
            read(0, "Y", 0, 2.0),
            write(0, "X", 2, 3.0),
            read(1, "X", 2, 4.0),
            read(1, "X", 1, 5.0),
        ]
    )


def own_write_reread_across_another_object():
    """Site 0 writes X = 2 after X = 1, with a read of Y between, and
    then reads X = 1: its own later write is lost."""
    return History(
        [
            write(0, "X", 1, 1.0),
            write(1, "Y", 5, 1.5),
            read(0, "Y", 0, 2.0),
            write(0, "X", 2, 3.0),
            read(0, "X", 1, 4.0),
        ]
    )


class TestProgramOrderAcrossOtherObjects:
    """An operation outside the serialized set (a read of another object,
    outside an object's operations or outside ``H_{i+w}``) does not cut
    its site's program order."""

    def test_pram_and_coherence_keep_the_writer_order(self):
        h = cut_by_another_object()
        assert not check_pram(h)
        assert not check_coherence(h)
        # The verdicts of the same history without the read of Y.
        only_x = History([op for op in h if op.obj == "X"])
        assert not check_pram(only_x) and not check_coherence(only_x)

    def test_coherence_keeps_a_sites_own_order(self):
        assert not check_coherence(own_write_reread_across_another_object())


class TestPram:
    def test_pram_accepts_non_causal(self):
        h = pram_not_cc()
        assert check_pram(h)
        assert not check_cc(h)

    def test_pram_rejects_reordered_writer(self):
        assert not check_pram(not_pram())

    def test_cc_implies_pram(self, rng):
        from repro.workloads import random_replica_history, random_sc_history

        for i in range(15):
            h = (random_sc_history if i % 2 else random_replica_history)(rng)
            if check_cc(h).satisfied:
                assert check_pram(h).satisfied

    def test_paper_figures_are_pram(self, fig1, fig5, fig6):
        for h in (fig1, fig5, fig6):
            assert check_pram(h)

    def test_every_site_witness_is_legal_and_keeps_the_writer_orders(
        self, fig1, fig5
    ):
        """Each ``H_{i+w}`` is decided like SC's whole history — the
        recorded write order first, the engine only on a cycle — so the
        figures need no branch node, and every witness either path
        returns is a legal serialization keeping the writers' program
        orders (the verdicts themselves are pinned by
        ``test_verdict_digest``)."""
        from repro.checkers.extensions import _per_writer_program_order
        from repro.core.serialization import is_legal, respects
        from repro.workloads import random_history, random_sc_history

        for h in (fig1, fig5):
            assert check_pram(h).states_explored == 0
        for seed in range(40):
            for generator in (random_history, random_sc_history):
                h = generator(random.Random(seed))
                result = check_pram(h)
                for site, witness in (result.site_witnesses or {}).items():
                    assert is_legal(witness, h.initial_value)
                    assert respects(witness, _per_writer_program_order(
                        h, h.site_plus_writes(site)))

    @pytest.mark.net
    def test_a_recorded_soak_is_decided_with_no_branch_node(self):
        """The seed-3 ring soak (9 006 ops) in virtual time: its recorded
        write order decides every ``H_{i+w}``.  Measured 0.05 s on 2
        vCPUs; 17 s when each site's history went to the search."""
        import time

        from repro.net.workloads import ring_cluster
        from repro.sim import vtime

        report = vtime.run(ring_cluster(
            n_servers=3, n_clients=3, replicas=2, rounds=3000, think=0.001,
            seed=3,
        ))
        assert len(report.history) == 9006
        started = time.perf_counter()
        result = check_pram(report.history)
        seconds = time.perf_counter() - started
        assert result.satisfied and result.states_explored == 0
        assert seconds < 1.0


class TestCoherence:
    def test_coherent_but_not_pram(self):
        h = coherent_not_pram()
        assert check_coherence(h)
        assert not check_pram(h)

    def test_pram_but_not_coherent(self):
        h = pram_not_coherent()
        assert check_pram(h)
        assert not check_coherence(h)

    def test_sc_implies_coherence(self, rng):
        from repro.workloads import random_sc_history

        for _ in range(10):
            h = random_sc_history(rng)
            assert check_sc(h).satisfied
            assert check_coherence(h).satisfied

    def test_single_object_coherence_equals_sc(self, rng):
        from repro.workloads import random_history

        for _ in range(15):
            h = random_history(rng, n_objects=1)
            assert check_coherence(h).satisfied == check_sc(h).satisfied


class TestProcessor:
    def test_sc_implies_pc(self, fig1, fig5):
        for h in (fig1, fig5):
            assert check_processor(h)

    def test_pc_rejects_incoherent(self):
        assert not check_processor(pram_not_coherent())

    def test_pc_rejects_non_pram(self):
        assert not check_processor(coherent_not_pram())

    def test_a_second_coherent_write_order_finds_the_witness(self):
        """Seed 17's linearizable history is SC, hence PC, yet the
        engine's coherent write order admits no PC serialization; the
        recorded write order does.  Each site's witness is legal, holds
        exactly ``H_{i+w}``, keeps the writers' program orders, and every
        site orders each object's writes alike."""
        from repro.checkers.extensions import _per_writer_program_order
        from repro.core.serialization import is_legal, respects
        from repro.workloads import random_linearizable_history

        h = random_linearizable_history(random.Random(17))
        assert check_sc(h).satisfied
        result = check_processor(h)
        assert result.satisfied
        write_orders = set()
        for site, witness in result.site_witnesses.items():
            ops = h.site_plus_writes(site)
            assert sorted(map(id, witness)) == sorted(map(id, ops))
            assert is_legal(witness, h.initial_value)
            assert respects(witness, _per_writer_program_order(h, ops))
            write_orders.add(tuple(
                (obj, tuple(op.value for op in witness
                            if op.is_write and op.obj == obj))
                for obj in sorted(h.objects)
            ))
        assert len(write_orders) == 1

    def test_pc_implies_pram_and_coherence(self, rng):
        from repro.workloads import random_history

        for _ in range(20):
            h = random_history(rng, n_ops=10)
            if check_processor(h).satisfied:
                assert check_pram(h).satisfied
                assert check_coherence(h).satisfied


class TestTimedCombinator:
    def test_timed_sc_equals_tsc(self, fig5):
        from repro.checkers import check_tsc

        for delta in (26.0, 50.0, 96.0, math.inf):
            combined = check_timed(fig5, check_sc, delta)
            assert combined.satisfied == check_tsc(fig5, delta).satisfied

    def test_timed_cc_equals_tcc(self, fig6):
        from repro.checkers import check_tcc

        for delta in (30.0, 300.0):
            combined = check_timed(fig6, check_cc, delta)
            assert combined.satisfied == check_tcc(fig6, delta).satisfied

    def test_timed_pram(self, fig1):
        # Figure 1 is PRAM; timed-PRAM fails at small delta like TSC does.
        assert check_timed(fig1, check_pram, 400.0)
        assert not check_timed(fig1, check_pram, 60.0)

    def test_criterion_name_propagates(self, fig1):
        result = check_timed(fig1, check_pram, 400.0)
        assert result.criterion == "Timed-PRAM"
