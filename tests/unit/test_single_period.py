"""The M = 1 closed form (Section 3.1) against the exact analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario
from tests.markov_oracles import (
    detection_probability_single_period,
    report_count_pmf_single_period,
)


@pytest.fixture
def single_period():
    return onr_scenario(window=1, threshold=1)


class TestReportCountPmf:
    def test_is_binomial(self, single_period):
        pmf = report_count_pmf_single_period(single_period)
        assert pmf.size == single_period.num_sensors + 1
        assert pmf.sum() == pytest.approx(1.0)
        # Eq. 1 at k=0: (1 - p_indi)^N.
        expected0 = (1.0 - single_period.p_indi) ** single_period.num_sensors
        assert pmf[0] == pytest.approx(expected0)

    def test_mean_matches_n_p(self, single_period):
        pmf = report_count_pmf_single_period(single_period)
        mean = float(np.arange(pmf.size) @ pmf)
        assert mean == pytest.approx(
            single_period.num_sensors * single_period.p_indi
        )

    def test_eq1_explicit_k(self, single_period):
        pmf = report_count_pmf_single_period(single_period)
        n, p = single_period.num_sensors, single_period.p_indi
        expected2 = math.comb(n, 2) * p**2 * (1 - p) ** (n - 2)
        assert pmf[2] == pytest.approx(expected2)


class TestDetectionProbability:
    def test_complements_pmf_head(self, single_period):
        pmf = report_count_pmf_single_period(single_period)
        p_detect = detection_probability_single_period(single_period)
        assert p_detect == pytest.approx(1.0 - pmf[0])

    def test_threshold_two(self):
        scenario = onr_scenario(window=1, threshold=2)
        pmf = report_count_pmf_single_period(scenario)
        p_detect = detection_probability_single_period(scenario)
        assert p_detect == pytest.approx(1.0 - pmf[0] - pmf[1])

    def test_sparse_single_period_detection_is_weak(self, single_period):
        # The motivation of Section 3.1's discussion: with k=1, M=1 in a
        # sparse network, even the best case detects with low probability.
        assert detection_probability_single_period(single_period) < 0.65

    def test_higher_threshold_means_lower_probability(self):
        values = [
            detection_probability_single_period(onr_scenario(window=1, threshold=k))
            for k in (1, 2, 3, 5)
        ]
        assert values == sorted(values, reverse=True)

    def test_multi_period_scenario_rejected(self, onr):
        with pytest.raises(AnalysisError):
            detection_probability_single_period(onr)


@st.composite
def single_period_scenarios(draw):
    """Sparse ``M = 1`` scenarios over speed, range, node count and ``k``."""
    sensing_range = draw(st.floats(10.0, 2000.0))
    speed = draw(st.floats(0.1, 100.0))
    dr_area = 2.0 * sensing_range * speed + math.pi * sensing_range**2
    side = math.sqrt(dr_area) * draw(st.floats(1.1, 30.0))
    return Scenario(
        field=SensorField.square(side),
        num_sensors=draw(st.integers(1, 240)),
        sensing_range=sensing_range,
        target_speed=speed,
        sensing_period=1.0,
        detect_prob=draw(st.floats(0.05, 1.0)),
        window=1,
        threshold=draw(st.integers(1, 12)),
    )


class TestAgainstExactOracle:
    @given(scenario=single_period_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_n_fold_convolution(self, scenario):
        """Eq. 2's binomial tail against the exact engine's convolution."""
        closed_form = detection_probability_single_period(scenario)
        exact = ExactSpatialAnalysis(scenario).detection_probability()
        assert abs(closed_form - exact) <= 1e-13
