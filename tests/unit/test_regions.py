"""Unit tests for repro.core.regions (Eqs. 6, 8, 10)."""

import math

import numpy as np
import pytest

from repro.core.regions import (
    area_b,
    area_h_closed_form,
    area_t,
    body_subareas,
    head_subareas,
    s_approach_regions,
    tail_subareas,
)
from repro.errors import AnalysisError, GeometryError
from repro.experiments.presets import onr_scenario
from tests.region_oracles import area_h_literal


class TestAreaH:
    def test_literal_matches_closed_form_fast_target(self):
        literal = area_h_literal(1000.0, 600.0, 4)
        closed = area_h_closed_form(1000.0, 600.0, 4)
        np.testing.assert_allclose(literal, closed, rtol=1e-12)

    def test_literal_matches_closed_form_slow_target(self):
        literal = area_h_literal(1000.0, 240.0, 9)
        closed = area_h_closed_form(1000.0, 240.0, 9)
        np.testing.assert_allclose(literal, closed, rtol=1e-12)

    def test_sum_is_dr_area(self):
        areas = area_h_closed_form(1000.0, 600.0, 4)
        assert areas.sum() == pytest.approx(2 * 1000 * 600 + math.pi * 1000**2)

    def test_first_entry_is_rectangle(self):
        areas = area_h_closed_form(1000.0, 600.0, 4)
        assert areas[1] == pytest.approx(2 * 1000 * 600)

    def test_padding_zero(self):
        assert area_h_closed_form(1000.0, 600.0, 4)[0] == 0.0

    def test_all_non_negative(self):
        for step in (240.0, 600.0, 1999.0, 2000.0, 2300.0):
            ms = math.ceil(2000.0 / step)
            areas = area_h_closed_form(1000.0, step, ms)
            assert (areas >= -1e-9).all(), f"step={step}"

    def test_ms_one_fast_target(self):
        # Step >= sensing diameter: only the boundary disc overlaps.
        areas = area_h_closed_form(1000.0, 2500.0, 1)
        assert areas[1] == pytest.approx(2 * 1000 * 2500)
        assert areas[2] == pytest.approx(math.pi * 1000**2)

    def test_inconsistent_ms_rejected(self):
        with pytest.raises(GeometryError):
            area_h_closed_form(1000.0, 600.0, 7)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(GeometryError):
            area_h_closed_form(0.0, 600.0, 4)
        with pytest.raises(GeometryError):
            area_h_closed_form(1000.0, 0.0, 4)


class TestAreaB:
    def test_sum_is_body_nedr(self):
        head = area_h_closed_form(1000.0, 600.0, 4)
        body = area_b(head)
        assert body.sum() == pytest.approx(2 * 1000 * 600)

    def test_eq8_structure(self):
        head = area_h_closed_form(1000.0, 600.0, 4)
        body = area_b(head)
        for i in range(1, 5):
            assert body[i] == pytest.approx(head[i] - head[i + 1])
        assert body[5] == pytest.approx(head[5])

    def test_non_negative(self):
        for step in (240.0, 600.0, 1100.0):
            ms = math.ceil(2000.0 / step)
            body = area_b(area_h_closed_form(1000.0, step, ms))
            assert (body >= -1e-9).all()

    def test_too_short_input_rejected(self):
        with pytest.raises(GeometryError):
            area_b(np.array([0.0, 1.0]))


class TestAreaT:
    @pytest.fixture
    def body(self):
        return area_b(area_h_closed_form(1000.0, 600.0, 4))

    def test_sum_preserved(self, body):
        for j in range(1, 5):
            assert area_t(body, j).sum() == pytest.approx(body.sum())

    def test_eq10_structure(self, body):
        ms = 4
        for j in range(1, ms + 1):
            tail = area_t(body, j)
            top = ms + 1 - j
            np.testing.assert_allclose(tail[1:top], body[1:top])
            assert tail[top] == pytest.approx(body[top:].sum())
            assert (tail[top + 1 :] == 0.0).all()

    def test_last_tail_merges_everything(self, body):
        tail = area_t(body, 4)
        assert tail[1] == pytest.approx(body.sum())
        assert (tail[2:] == 0.0).all()

    def test_invalid_index_rejected(self, body):
        with pytest.raises(GeometryError):
            area_t(body, 0)
        with pytest.raises(GeometryError):
            area_t(body, 5)


class TestScenarioWrappers:
    def test_head_subareas(self, onr):
        np.testing.assert_allclose(
            head_subareas(onr), area_h_closed_form(1000.0, 600.0, 4)
        )

    def test_body_subareas_sum(self, onr):
        assert body_subareas(onr).sum() == pytest.approx(onr.nedr_body_area)

    def test_tail_subareas_sum(self, onr):
        assert tail_subareas(onr, 2).sum() == pytest.approx(onr.nedr_body_area)


class TestSApproachRegions:
    def test_total_is_aregion(self, onr):
        regions = s_approach_regions(onr)
        assert regions.sum() == pytest.approx(onr.aregion_area)

    def test_total_is_aregion_slow_target(self, onr_slow):
        regions = s_approach_regions(onr_slow)
        assert regions.sum() == pytest.approx(onr_slow.aregion_area)

    def test_non_negative(self, onr):
        assert (s_approach_regions(onr) >= -1e-9).all()

    def test_requires_body_stage(self):
        scenario = onr_scenario(window=3, threshold=1)
        with pytest.raises(AnalysisError):
            s_approach_regions(scenario)

    def test_matches_monte_carlo_estimate(self, onr, rng):
        from repro.geometry.coverage import estimate_coverage_count_areas

        regions = s_approach_regions(onr)
        estimated = estimate_coverage_count_areas(
            onr.sensing_range,
            onr.step_length,
            onr.window,
            samples=400_000,
            rng=rng,
        )
        for coverage, area in estimated.items():
            assert regions[coverage] == pytest.approx(area, rel=0.05), coverage
