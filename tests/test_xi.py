"""Tests for the Section 5.4 xi maps."""

import math

import pytest

from repro.clocks.plausible import REVTimestamp
from repro.clocks.vector import VectorTimestamp
from repro.clocks.xi import (
    EuclideanXi,
    PNormXi,
    SumXi,
    WeightedXi,
    figure7_examples,
    validate_xi,
)


class TestFigure7Values:
    def test_euclidean_values_match_paper(self):
        examples = figure7_examples()
        assert examples["<3,4>"] == pytest.approx(5.0)
        assert examples["<3,2>"] == pytest.approx(3.6055, abs=1e-3)
        assert examples["<2,4>"] == pytest.approx(4.4721, abs=1e-3)

    def test_sum_example_from_text(self):
        # "if the current logical time of a site is <35, 4, 0, 72>, then
        # this site is aware of 111 global events"
        assert SumXi()(VectorTimestamp((35, 4, 0, 72))) == 111.0

    def test_dominated_area_is_smaller(self):
        # <3,2> < <3,4> implies xi(<3,2>) < xi(<3,4>) for both maps.
        small, big = VectorTimestamp((3, 2)), VectorTimestamp((3, 4))
        for xi in (SumXi(), EuclideanXi()):
            assert xi(small) < xi(big)

    def test_concurrent_pair_ordering_from_figure(self):
        # xi(<3,2>) < xi(<2,4>) even though the timestamps are concurrent.
        assert EuclideanXi()(VectorTimestamp((3, 2))) < EuclideanXi()(
            VectorTimestamp((2, 4))
        )


class TestDefinition5:
    def sample_timestamps(self):
        return [
            VectorTimestamp(t)
            for t in [(0, 0), (1, 0), (0, 1), (1, 1), (3, 2), (2, 4), (3, 4), (5, 5)]
        ]

    @pytest.mark.parametrize(
        "xi",
        [SumXi(), EuclideanXi(), PNormXi(1.5), WeightedXi((2.0, 0.5))],
        ids=["sum", "euclid", "pnorm", "weighted"],
    )
    def test_valid_maps_pass(self, xi):
        assert validate_xi(xi, self.sample_timestamps()) is None

    def test_constant_map_fails(self):
        error = validate_xi(lambda t: 1.0, self.sample_timestamps())
        assert error is not None and "monotone" in error

    def test_inverting_map_fails(self):
        assert validate_xi(lambda t: -sum(t.entries),
                           self.sample_timestamps()) is not None


class TestWeightedXi:
    def test_weights_applied(self):
        xi = WeightedXi((2.0, 1.0))
        assert xi(VectorTimestamp((3, 4))) == pytest.approx(10.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedXi(())
        with pytest.raises(ValueError):
            WeightedXi((1.0, 0.0))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            WeightedXi((1.0,))(VectorTimestamp((1, 2)))


class TestPNorm:
    def test_p1_equals_sum(self):
        t = VectorTimestamp((3, 4))
        assert PNormXi(1.0)(t) == SumXi()(t)

    def test_p2_equals_euclid(self):
        t = VectorTimestamp((3, 4))
        assert PNormXi(2.0)(t) == EuclideanXi()(t)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            PNormXi(0.5)
        with pytest.raises(ValueError):
            PNormXi(math.inf)


class TestOtherTimestampKinds:
    def test_rev_timestamps_supported(self):
        xi = SumXi()
        assert xi(REVTimestamp(0, (2, 3))) == 5.0

    def test_unsupported_type_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            SumXi()(Weird())
