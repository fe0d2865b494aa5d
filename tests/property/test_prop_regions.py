"""Property-based tests for the region decomposition (Eqs. 6, 8, 10)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.regions import (
    area_b,
    area_h_closed_form,
    area_t,
    head_subareas,
    s_approach_regions,
    window_regions,
)
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from tests.region_oracles import area_h_literal, stripe_head_areas, stripe_regions


def geometry_strategy():
    """(sensing_range, step_length, ms) triples with consistent ms."""

    @st.composite
    def build(draw):
        sensing_range = draw(st.floats(10.0, 5_000.0))
        # Step between 5% and 300% of the sensing diameter.
        ratio = draw(st.floats(0.05, 3.0))
        step = ratio * 2.0 * sensing_range
        ms = math.ceil(2.0 * sensing_range / step)
        return sensing_range, step, ms

    return build()


class TestAreaHProperties:
    @given(geometry=geometry_strategy())
    @settings(max_examples=200)
    # 2·Rs/L one ulp above 3: the lens at (ms − 1)·L is one ulp from
    # tangency in both formulations.
    @example(geometry=(3772.0535387142654, 2514.7023591428433, 4))
    def test_literal_equals_closed_form(self, geometry):
        # The two formulations accumulate floating-point cancellation
        # differently when a circle pair approaches tangency
        # ((i-1)*step -> 2*Rs), where both involve differences of nearly
        # equal lens terms; agreement to 6 significant digits is the
        # strongest claim that survives hypothesis's adversarial geometry.
        rs, step, ms = geometry
        np.testing.assert_allclose(
            area_h_literal(rs, step, ms),
            area_h_closed_form(rs, step, ms),
            rtol=1e-6,
            atol=1e-4,
        )

    @given(geometry=geometry_strategy())
    @settings(max_examples=200)
    def test_non_negative_and_sums_to_dr(self, geometry):
        rs, step, ms = geometry
        areas = area_h_closed_form(rs, step, ms)
        assert (areas >= -1e-6).all()
        assert areas.sum() == pytest.approx(
            2.0 * rs * step + math.pi * rs * rs, rel=1e-9
        )


class TestAreaBTProperties:
    @given(geometry=geometry_strategy())
    @settings(max_examples=200)
    def test_body_non_negative_sums_to_nedr(self, geometry):
        rs, step, ms = geometry
        body = area_b(area_h_closed_form(rs, step, ms))
        assert (body >= -1e-6).all()
        assert body.sum() == pytest.approx(2.0 * rs * step, rel=1e-9)

    @given(geometry=geometry_strategy(), data=st.data())
    @settings(max_examples=200)
    def test_tail_preserves_mass_and_truncates(self, geometry, data):
        rs, step, ms = geometry
        body = area_b(area_h_closed_form(rs, step, ms))
        j = data.draw(st.integers(1, ms))
        tail = area_t(body, j)
        assert tail.sum() == pytest.approx(body.sum(), rel=1e-9)
        assert (tail[ms + 2 - j :] == 0.0).all()


class TestRegionMonteCarloAgreement:
    @given(
        ratio=st.floats(0.15, 1.5),
        window_extra=st.integers(1, 10),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_regions_match_sampled_coverage(self, ratio, window_extra, seed):
        """Closed-form Region(i) areas match direct geometric sampling."""
        from repro.geometry.coverage import estimate_coverage_count_areas

        sensing_range = 100.0
        step = ratio * 2.0 * sensing_range
        ms = math.ceil(2.0 * sensing_range / step)
        window = ms + window_extra
        scenario = Scenario(
            field=SensorField.square(1e5),
            num_sensors=10,
            sensing_range=sensing_range,
            target_speed=step,
            sensing_period=1.0,
            detect_prob=0.9,
            window=window,
            threshold=1,
        )
        regions = s_approach_regions(scenario)
        sampled = estimate_coverage_count_areas(
            sensing_range,
            step,
            window,
            samples=150_000,
            rng=np.random.default_rng(seed),
        )
        total = regions.sum()
        for coverage, area in sampled.items():
            # Compare as fractions of the ARegion with additive tolerance:
            # tiny slivers have large relative MC noise.
            assert regions[coverage] / total == pytest.approx(
                area / total, abs=0.02
            ), f"coverage={coverage}"


def _by_coverage(areas, ms):
    """``areas`` on the engine's ``0 .. ms + 1`` coverage index."""
    out = np.zeros(ms + 2)
    out[: min(areas.size, ms + 2)] = areas[: ms + 2]
    return out


def _scenario(sensing_range, step, window):
    return Scenario(
        field=SensorField.square(1e5),
        num_sensors=10,
        sensing_range=sensing_range,
        target_speed=step,
        sensing_period=1.0,
        detect_prob=0.9,
        window=window,
        threshold=1,
    )


class TestStripeQuadratureOracle:
    """``Region(i)`` against stripe quadrature, which shares no code with
    :mod:`repro.core.regions` (see ``tests/region_oracles.py``).  A bug in
    the lens areas or the Eq. 6/8/10 recurrences would move the engine
    and the exact spatial analysis together; it cannot move this."""

    # Near tangency ((i-1)·L -> 2·Rs) the lens differences cancel and the
    # closed form loses digits: over 300 random geometries plus exact and
    # 1e-9-near tangencies the worst gap was 5.8e-14 of the region's total
    # area, against ~1e-15 away from tangency.
    RTOL = 1e-12

    @given(geometry=geometry_strategy(), extra=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_window_regions_match_for_every_prefix(self, geometry, extra):
        rs, step, ms = geometry
        scenario = _scenario(rs, step, ms + 1 + extra)
        for periods in range(1, scenario.window + 1):
            engine = np.asarray(window_regions(scenario, periods))
            oracle = stripe_regions(rs, step, periods)
            # Nothing is covered more than ms + 1 times.
            assert np.all(oracle[ms + 2 :] == 0.0)
            np.testing.assert_allclose(
                engine,
                _by_coverage(oracle, ms),
                rtol=0,
                atol=self.RTOL * oracle.sum(),
                err_msg=f"periods={periods}",
            )

    @given(geometry=geometry_strategy())
    @settings(max_examples=50, deadline=None)
    # 2·Rs/L one ulp above 3 (tangency at (ms − 1)·L).
    @example(geometry=(2168.6091035602626, 1445.7394023735083, 4))
    def test_head_subareas_match(self, geometry):
        rs, step, ms = geometry
        engine = np.asarray(head_subareas(_scenario(rs, step, ms + 1)))
        oracle = stripe_head_areas(rs, step)
        np.testing.assert_allclose(
            engine, oracle, rtol=0, atol=self.RTOL * oracle.sum()
        )
        # Eq. 6 as printed takes sqrt(Rs² − (d/2)²) of a difference that
        # vanishes at tangency (2·Rs/L an integer), so there it keeps only
        # ~9 digits: 1.05e-9 of the area at Rs=221, L=147.33 (ms=4).
        np.testing.assert_allclose(
            area_h_literal(rs, step, ms),
            oracle,
            rtol=0,
            atol=1e-7 * oracle.sum(),
        )

    def test_onr_geometry_to_round_off(self):
        # The paper's field at V = 4 and 10 m/s (ms = 9 and 4): far from
        # tangency both forms agree to ~1e-15 of the region.
        for speed in (4.0, 10.0):
            scenario = _scenario(1_000.0, speed * 60.0, 20)
            for periods in (1, scenario.ms, scenario.ms + 1, 20):
                engine = np.asarray(window_regions(scenario, periods))
                oracle = stripe_regions(1_000.0, speed * 60.0, periods)
                np.testing.assert_allclose(
                    engine,
                    _by_coverage(oracle, scenario.ms),
                    rtol=0,
                    atol=1e-13 * oracle.sum(),
                )
