"""Property-based tests for the geometry substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle_math import circle_lens_area
from repro.geometry.shapes import Point
from tests.region_oracles import Circle, circular_segment_area

positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestLensAreaProperties:
    @given(distance=st.floats(0, 2e6), radius=positive)
    def test_bounded_by_disc(self, distance, radius):
        area = circle_lens_area(distance, radius)
        disc = math.pi * radius * radius
        assert 0.0 <= area <= disc * (1.0 + 1e-12) + 1e-9

    @given(radius=positive, fraction=st.floats(0.0, 1.0))
    def test_monotone_in_distance(self, radius, fraction):
        d1 = fraction * 2 * radius
        d2 = min(2 * radius, d1 + 0.1 * radius)
        assert circle_lens_area(d1, radius) >= circle_lens_area(d2, radius) - 1e-9

    @given(radius=positive, fraction=st.floats(0.0, 0.999))
    def test_segment_decomposition(self, radius, fraction):
        # Lens(d) == 2 * segment(d / 2) for overlapping circles.
        d = fraction * 2 * radius
        lens = circle_lens_area(d, radius)
        segment = circular_segment_area(radius, d / 2.0)
        assert lens == __import__("pytest").approx(2 * segment, rel=1e-9, abs=1e-12)


class TestCircleIntersectionProperties:
    @given(
        d=st.floats(0.0, 100.0),
        r1=st.floats(0.1, 50.0),
        r2=st.floats(0.1, 50.0),
    )
    @settings(max_examples=200)
    def test_intersection_bounded_by_smaller_disc(self, d, r1, r2):
        a = Circle(Point(0, 0), r1)
        b = Circle(Point(d, 0), r2)
        area = a.intersection_area(b)
        assert -1e-9 <= area <= min(a.area, b.area) + 1e-6
