"""Unit tests for repro.geometry.shapes.Point and the two-disc oracle."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.shapes import Point
from tests.region_oracles import Circle


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_iterable_unpacking(self):
        x, y = Point(2.0, 5.0)
        assert (x, y) == (2.0, 5.0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 1.0


class TestCircle:
    def test_area(self):
        assert Circle(Point(0, 0), 2.0).area == pytest.approx(4.0 * math.pi)

    def test_contains_boundary(self):
        circle = Circle(Point(0, 0), 1.0)
        assert circle.contains(Point(1.0, 0.0))
        assert not circle.contains(Point(1.0001, 0.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Circle(Point(0, 0), -1.0)

    def test_intersects(self):
        a = Circle(Point(0, 0), 1.0)
        assert a.intersects(Circle(Point(1.5, 0), 1.0))
        assert not a.intersects(Circle(Point(3.0, 0), 1.0))

    def test_intersection_area_disjoint(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(5, 0), 1.0)
        assert a.intersection_area(b) == 0.0

    def test_intersection_area_contained(self):
        big = Circle(Point(0, 0), 5.0)
        small = Circle(Point(1, 0), 1.0)
        assert big.intersection_area(small) == pytest.approx(small.area)

    def test_intersection_area_equal_radii_matches_lens(self):
        from repro.geometry.circle_math import circle_lens_area

        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(1.7, 0), 2.0)
        assert a.intersection_area(b) == pytest.approx(circle_lens_area(1.7, 2.0))

    def test_intersection_area_symmetric(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(1.2, 0.8), 3.0)
        assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))
