"""Unit tests for repro.geometry.coverage."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.coverage import estimate_coverage_count_areas


class TestCoverageCountAreas:
    def test_single_period_recovers_stadium_area(self, rng):
        areas = estimate_coverage_count_areas(
            10.0, 30.0, periods=1, samples=300_000, rng=rng
        )
        expected = 2 * 10.0 * 30.0 + math.pi * 100.0
        assert areas[1] == pytest.approx(expected, rel=0.02)

    def test_total_matches_aregion(self, rng):
        rs, step, periods = 10.0, 6.0, 12
        areas = estimate_coverage_count_areas(
            rs, step, periods, samples=300_000, rng=rng
        )
        total = sum(areas.values())
        expected = 2 * periods * rs * step + math.pi * rs * rs
        assert total == pytest.approx(expected, rel=0.02)

    def test_max_coverage_bounded_by_ms_plus_one(self, rng):
        rs, step = 10.0, 6.0
        ms = math.ceil(2 * rs / step)
        areas = estimate_coverage_count_areas(rs, step, 12, samples=100_000, rng=rng)
        assert max(areas) <= ms + 1

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(GeometryError):
            estimate_coverage_count_areas(0.0, 1.0, 5, rng=rng)
        with pytest.raises(GeometryError):
            estimate_coverage_count_areas(1.0, -1.0, 5, rng=rng)
        with pytest.raises(GeometryError):
            estimate_coverage_count_areas(1.0, 1.0, 0, rng=rng)
