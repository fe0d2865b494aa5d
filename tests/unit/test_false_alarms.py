"""Unit tests for repro.core.false_alarms (Section 6 future work)."""

import math

import pytest
from scipy import stats

from repro.core.false_alarms import (
    expected_hours_between_false_alarms,
    false_alarm_rate_per_period,
    minimum_safe_threshold,
    window_false_alarm_probability,
)
from repro.errors import AnalysisError


class TestWindowProbability:
    def test_matches_binomial_tail(self):
        p = window_false_alarm_probability(240, 20, 1e-3, 5)
        expected = float(stats.binom.sf(4, 4800, 1e-3))
        assert p == pytest.approx(expected)

    def test_threshold_one_complements_no_alarms(self):
        p = window_false_alarm_probability(10, 5, 0.01, 1)
        assert p == pytest.approx(1.0 - 0.99**50)

    def test_zero_false_alarm_rate(self):
        assert window_false_alarm_probability(10, 5, 0.0, 1) == 0.0

    def test_monotone_decreasing_in_threshold(self):
        values = [
            window_false_alarm_probability(240, 20, 1e-3, k) for k in (1, 3, 5, 10)
        ]
        assert values == sorted(values, reverse=True)

    def test_monotone_increasing_in_rate(self):
        values = [
            window_false_alarm_probability(240, 20, pf, 5)
            for pf in (1e-5, 1e-4, 1e-3)
        ]
        assert values == sorted(values)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            window_false_alarm_probability(0, 20, 0.1, 1)
        with pytest.raises(AnalysisError):
            window_false_alarm_probability(10, 0, 0.1, 1)
        with pytest.raises(AnalysisError):
            window_false_alarm_probability(10, 20, 1.0, 1)
        with pytest.raises(AnalysisError):
            window_false_alarm_probability(10, 20, 0.1, 0)

    @pytest.mark.parametrize(
        "args",
        [
            (10.5, 2, 0.1, 1),  # was 0.89
            (10, 2, 0.1, 2.5),  # was 0.61
            (10, 2.0, 0.1, 1),
            (True, 2, 0.1, 1),
            (10, 2, 0.1, True),
        ],
    )
    def test_non_integral_counts_rejected(self, args):
        with pytest.raises(AnalysisError, match="must be an integer"):
            window_false_alarm_probability(*args)
        with pytest.raises(AnalysisError, match="must be an integer"):
            false_alarm_rate_per_period(*args)


class TestMinimumSafeThreshold:
    def test_is_minimal(self):
        k = minimum_safe_threshold(240, 20, 1e-3, 1e-6)
        assert window_false_alarm_probability(240, 20, 1e-3, k) <= 1e-6
        assert window_false_alarm_probability(240, 20, 1e-3, k - 1) > 1e-6

    def test_grows_with_false_alarm_rate(self):
        values = [
            minimum_safe_threshold(240, 20, pf, 1e-6)
            for pf in (1e-5, 1e-4, 1e-3, 1e-2)
        ]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_clean_sensors_need_k_one(self):
        assert minimum_safe_threshold(240, 20, 0.0, 1e-6) == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(AnalysisError):
            minimum_safe_threshold(240, 20, 1e-3, 0.0)
        with pytest.raises(AnalysisError):
            minimum_safe_threshold(240, 20, 1e-3, 1.0)


class TestRates:
    def test_rate_equals_window_probability(self):
        assert false_alarm_rate_per_period(240, 20, 1e-3, 5) == pytest.approx(
            window_false_alarm_probability(240, 20, 1e-3, 5)
        )

    def test_hours_between_false_alarms(self):
        rate = false_alarm_rate_per_period(240, 20, 1e-3, 5)
        hours = expected_hours_between_false_alarms(240, 20, 1e-3, 5, 60.0)
        assert hours == pytest.approx(60.0 / rate / 3600.0)

    def test_infinite_when_rate_zero(self):
        assert math.isinf(
            expected_hours_between_false_alarms(10, 5, 0.0, 1, 60.0)
        )

    def test_invalid_period_rejected(self):
        with pytest.raises(AnalysisError):
            expected_hours_between_false_alarms(10, 5, 0.1, 1, 0.0)
