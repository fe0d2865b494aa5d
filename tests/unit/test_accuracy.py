"""Unit tests for repro.core.accuracy (Fig. 8 machinery)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.accuracy import (
    required_body_truncation,
    required_head_truncation,
    required_s_approach_truncation,
    required_truncation,
    stage_accuracy,
)
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario


class TestStageAccuracy:
    def test_matches_binomial_cdf(self):
        assert stage_accuracy(100, 50.0, 1000.0, 3) == pytest.approx(
            float(stats.binom.cdf(3, 100, 0.05))
        )

    def test_full_truncation_is_one(self):
        assert stage_accuracy(10, 50.0, 1000.0, 10) == pytest.approx(1.0)

    def test_monotone_in_truncation(self):
        values = [stage_accuracy(100, 100.0, 1000.0, g) for g in range(6)]
        assert values == sorted(values)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            stage_accuracy(10, 1.0, 0.0, 1)
        with pytest.raises(AnalysisError):
            stage_accuracy(10, -1.0, 10.0, 1)
        with pytest.raises(AnalysisError):
            stage_accuracy(10, 20.0, 10.0, 1)
        with pytest.raises(AnalysisError):
            stage_accuracy(-1, 1.0, 10.0, 1)

    @pytest.mark.parametrize(
        "args",
        [
            (2.5, 1.0, 10.0, 1),  # was nan
            (10, 1.0, 10.0, 1.5),  # was floored to 1
            (10.0, 1.0, 10.0, 1),
            (True, 1.0, 10.0, 1),
            (10, 1.0, 10.0, False),
            (10, 1.0, math.inf, 1),  # was 1.0
            (10, 1.0, math.nan, 1),
            (10, math.nan, 10.0, 1),
        ],
    )
    def test_non_integral_counts_and_non_finite_areas_rejected(self, args):
        with pytest.raises(AnalysisError):
            stage_accuracy(*args)

    def test_numpy_integer_counts_accepted(self):
        assert stage_accuracy(np.int64(100), 50.0, 1000.0, np.int32(3)) == (
            stage_accuracy(100, 50.0, 1000.0, 3)
        )


class TestRequiredTruncation:
    def test_smallest_satisfying_value(self):
        target = 0.99
        g = required_truncation(100, 50.0, 1000.0, target)
        assert stage_accuracy(100, 50.0, 1000.0, g) >= target
        if g > 0:
            assert stage_accuracy(100, 50.0, 1000.0, g - 1) < target

    def test_trivial_target(self):
        assert required_truncation(100, 50.0, 1000.0, 1e-9) == 0

    def test_invalid_target_rejected(self):
        with pytest.raises(AnalysisError):
            required_truncation(10, 1.0, 10.0, 0.0)
        with pytest.raises(AnalysisError):
            required_truncation(10, 1.0, 10.0, 1.5)


class TestScenarioTruncations:
    def test_paper_working_point(self):
        # The paper runs everything at gh = g = 3; at N = 240 that yields
        # ~95.6% accuracy, so the 99% requirement must demand more than
        # plain g=3 in the head and G >> g overall (Fig. 8).
        scenario = onr_scenario(num_sensors=240, speed=10.0)
        g = required_body_truncation(scenario, 0.99)
        gh = required_head_truncation(scenario, 0.99)
        big_g = required_s_approach_truncation(scenario, 0.99)
        assert g <= gh < big_g
        assert big_g >= 6  # "when G is large, such as 6 or more" (Sec. 3.4.5)

    def test_monotone_in_node_count(self):
        counts = (60, 140, 240)
        for fn in (
            required_body_truncation,
            required_head_truncation,
            required_s_approach_truncation,
        ):
            values = [fn(onr_scenario(num_sensors=n), 0.99) for n in counts]
            assert values == sorted(values), fn.__name__

    def test_monotone_in_target(self):
        scenario = onr_scenario(num_sensors=240)
        values = [
            required_s_approach_truncation(scenario, eta)
            for eta in (0.9, 0.99, 0.999)
        ]
        assert values == sorted(values)
