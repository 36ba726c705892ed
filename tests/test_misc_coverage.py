"""Coverage for smaller helpers across the package."""

import math

import pytest

from repro.analysis.sweep import (
    delta_cost_sweep,
    policy_comparison,
    run_cluster_experiment,
    variant_comparison,
)
from repro.checkers import delta_spectrum
from repro.clocks.plausible import CombClock, KLamportClock, REVClock
from repro.clocks.xi import figure7_examples
from repro.core.history import History
from repro.core.operations import read, write
from repro.engine import messages
from repro.workloads import uniform_workload


def small_workload():
    return uniform_workload(["A"], n_ops=8, write_fraction=0.2)


class TestSweepHelpers:
    def test_delta_cost_sweep_ends_with_the_untimed_baseline(self):
        rows = delta_cost_sweep([0.2, 1.0], small_workload, n_clients=2, seed=1)
        assert [(r["variant"], r["delta"]) for r in rows] == [
            ("tsc", 0.2), ("tsc", 1.0), ("sc", math.inf),
        ]
        assert all(r["reads"] + r["writes"] == 16 for r in rows)

    def test_variant_comparison_times_only_the_timed_variants(self):
        rows = variant_comparison(small_workload, delta=0.3, n_clients=2, seed=1)
        assert [(r["variant"], r["delta"]) for r in rows] == [
            ("sc", math.inf), ("tsc", 0.3), ("cc", math.inf), ("tcc", 0.3),
        ]

    def test_policy_comparison_labels_each_propagation_option(self):
        rows = policy_comparison(small_workload, n_clients=2, seed=1)
        assert [r["policy"] for r in rows] == [
            "invalidate", "mark-old", "mark-old+push", "invalidate+server-inv",
        ]
        assert {(r["variant"], r["delta"]) for r in rows} == {("tsc", 0.5)}

    def test_run_cluster_experiment_row_fields(self):
        row = run_cluster_experiment(
            "sc", math.inf,
            lambda: uniform_workload(["A"], n_ops=8, write_fraction=0.2),
            n_clients=2, seed=1,
        )
        for field in ("hit_ratio", "msgs_per_read", "mean_staleness", "bytes"):
            assert field in row
        assert "late_frac_at_delta" not in row  # only for finite delta

    def test_timed_row_has_late_fraction(self):
        row = run_cluster_experiment(
            "tsc", 0.5,
            lambda: uniform_workload(["A"], n_ops=8, write_fraction=0.2),
            n_clients=2, seed=1,
        )
        assert "late_frac_at_delta" in row


class TestDeltaSpectrumDefaults:
    def test_zero_threshold_grid(self):
        h = History([write(0, "X", 1, 1.0), read(1, "X", 1, 2.0)])
        spectrum = delta_spectrum(h)
        assert all(tsc for tsc, _ in spectrum.values())


class TestClockOdds:
    def test_klamport_receive_shifts_levels(self):
        a, b = KLamportClock(0, k=3), KLamportClock(1, k=3)
        a.tick(); a.tick(); a.tick()
        stamp = a.send()  # levels[0] == 4
        merged = b.receive(stamp)
        assert merged.levels[0] == 5  # max(0, 4) + 1
        assert merged.levels[1] == 4  # remote head shifted down

    def test_klamport_validation(self):
        with pytest.raises(ValueError):
            KLamportClock(-1)
        with pytest.raises(ValueError):
            KLamportClock(0, k=0)
        with pytest.raises(ValueError):
            KLamportClock(0, k=2).receive(KLamportClock(0, k=3).now())

    def test_comb_send_and_repr(self):
        clock = CombClock([REVClock(0, 2), KLamportClock(0, 2)])
        stamp = clock.send()
        assert len(stamp.parts) == 2
        assert "CombClock" in repr(clock)

    def test_rev_zero(self):
        z = REVClock.zero(5, 2)
        assert z.slot == 1 and z.entries == (0, 0)


class TestFigure7Helper:
    def test_examples_dict(self):
        examples = figure7_examples()
        assert examples["<3,4>"] == pytest.approx(5.0)
        assert set(examples) == {"<3,4>", "<3,2>", "<2,4>"}


class TestMessageSizes:
    def test_bulk_vs_control(self):
        assert messages.size_of(messages.VERSION) == messages.OBJECT_SIZE
        assert messages.size_of(messages.STILL_VALID) == messages.CONTROL_SIZE
        assert messages.size_of(messages.PUSH) == messages.OBJECT_SIZE
        assert messages.size_of(messages.WRITE_ACK) == messages.CONTROL_SIZE
