"""Unit tests for repro.geometry.circle_math and its segment oracle."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.circle_math import circle_lens_area
from tests.region_oracles import circular_segment_area


class TestLensArea:
    def test_coincident_circles_give_full_disc(self):
        assert circle_lens_area(0.0, 3.0) == pytest.approx(math.pi * 9.0)

    def test_disjoint_circles_give_zero(self):
        assert circle_lens_area(6.0, 3.0) == 0.0
        assert circle_lens_area(100.0, 3.0) == 0.0

    def test_touching_circles_give_zero(self):
        assert circle_lens_area(2.0, 1.0) == 0.0

    def test_monotone_decreasing_in_distance(self):
        radius = 5.0
        values = [circle_lens_area(d, radius) for d in (0.0, 1.0, 3.0, 7.0, 9.9)]
        assert values == sorted(values, reverse=True)

    def test_known_value_half_radius_apart(self):
        # d = r: A = 2 r^2 acos(1/2) - r * sqrt(3)/2 * r = r^2 (2*pi/3 - sqrt(3)/2)
        r = 2.0
        expected = r * r * (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0)
        assert circle_lens_area(r, r) == pytest.approx(expected)

    def test_zero_radius(self):
        assert circle_lens_area(0.0, 0.0) == 0.0

    def test_negative_arguments_rejected(self):
        with pytest.raises(GeometryError):
            circle_lens_area(-1.0, 2.0)
        with pytest.raises(GeometryError):
            circle_lens_area(1.0, -2.0)

    def test_matches_two_segment_decomposition(self):
        # The lens is two equal circular segments with chord distance d/2.
        d, r = 3.0, 2.5
        assert circle_lens_area(d, r) == pytest.approx(
            2.0 * circular_segment_area(r, d / 2.0)
        )


class TestCircularSegmentArea:
    def test_chord_through_center_is_half_disc(self):
        assert circular_segment_area(2.0, 0.0) == pytest.approx(math.pi * 2.0)

    def test_chord_at_radius_is_zero(self):
        assert circular_segment_area(2.0, 2.0) == pytest.approx(0.0)

    def test_monotone_decreasing_in_chord_distance(self):
        values = [circular_segment_area(1.0, c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_chord_outside_circle_rejected(self):
        with pytest.raises(GeometryError):
            circular_segment_area(1.0, 1.5)

    def test_negative_arguments_rejected(self):
        with pytest.raises(GeometryError):
            circular_segment_area(-1.0, 0.0)
        with pytest.raises(GeometryError):
            circular_segment_area(1.0, -0.5)

    def test_zero_radius(self):
        assert circular_segment_area(0.0, 0.0) == 0.0
