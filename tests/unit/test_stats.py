"""Unit tests for repro.simulation.stats."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.stats import standard_error, wilson_interval
from tests.detection_oracles import two_proportion_z_test


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(600, 1000)
        assert low < 0.6 < high

    def test_bounded_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12) and 0.0 < high < 0.2
        low, high = wilson_interval(50, 50)
        assert 0.8 < low < 1.0 and high == pytest.approx(1.0, abs=1e-12)

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(6000, 10_000)
        wide = wilson_interval(60, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_widens_with_confidence(self):
        i90 = wilson_interval(600, 1000, confidence=0.90)
        i99 = wilson_interval(600, 1000, confidence=0.99)
        assert (i99[1] - i99[0]) > (i90[1] - i90[0])

    def test_known_value(self):
        # Classic example: 7/10 successes, 95% -> approx (0.397, 0.892).
        low, high = wilson_interval(7, 10)
        assert low == pytest.approx(0.3968, abs=0.001)
        assert high == pytest.approx(0.8922, abs=0.001)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(-1, 10)
        with pytest.raises(SimulationError):
            wilson_interval(11, 10)
        with pytest.raises(SimulationError):
            wilson_interval(5, 10, confidence=1.0)


class TestStandardError:
    def test_formula(self):
        assert standard_error(250, 1000) == pytest.approx(
            (0.25 * 0.75 / 1000) ** 0.5
        )

    def test_zero_at_extremes(self):
        assert standard_error(0, 100) == 0.0
        assert standard_error(100, 100) == 0.0

    def test_maximal_at_half(self):
        assert standard_error(50, 100) >= standard_error(20, 100)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            standard_error(5, 0)


class TestTwoProportionZTest:
    def test_identical_arms_high_p_value(self):
        z, p = two_proportion_z_test(500, 1000, 500, 1000)
        assert z == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_clearly_different_arms(self):
        z, p = two_proportion_z_test(800, 1000, 500, 1000)
        assert z > 5.0
        assert p < 1e-6

    def test_sign_convention(self):
        z_ab, _ = two_proportion_z_test(700, 1000, 500, 1000)
        z_ba, _ = two_proportion_z_test(500, 1000, 700, 1000)
        assert z_ab == pytest.approx(-z_ba)

    def test_degenerate_pooled_rate(self):
        assert two_proportion_z_test(0, 100, 0, 200) == (0.0, 1.0)
        assert two_proportion_z_test(100, 100, 200, 200) == (0.0, 1.0)

    def test_simulated_arms_from_same_scenario_agree(self):
        """Two independent runs of the same scenario pass the test at
        alpha = 0.001 (sanity of the whole simulation pipeline)."""
        from repro.experiments.presets import small_scenario
        from repro.simulation.runner import MonteCarloSimulator
        scenario = small_scenario()
        a = MonteCarloSimulator(scenario, trials=3000, seed=101).run()
        b = MonteCarloSimulator(scenario, trials=3000, seed=202).run()
        _, p = two_proportion_z_test(
            a.detections, a.trials, b.detections, b.trials
        )
        assert p > 0.001

    def test_invalid_counts_rejected(self):
        with pytest.raises(SimulationError):
            two_proportion_z_test(-1, 10, 1, 10)
        with pytest.raises(SimulationError):
            two_proportion_z_test(1, 10, 11, 10)


class TestCountsAreIntegers:
    @pytest.mark.parametrize(
        "successes, trials",
        [(2.5, 10), (2, 10.0), (True, 10), (1, True), (math.nan, 10)],
    )
    def test_non_integral_counts_rejected(self, successes, trials):
        with pytest.raises(SimulationError, match="must be an integer"):
            wilson_interval(successes, trials)
        with pytest.raises(SimulationError, match="must be an integer"):
            standard_error(successes, trials)
        with pytest.raises(SimulationError, match="must be an integer"):
            two_proportion_z_test(1, 10, successes, trials)

    def test_numpy_integer_counts_accepted(self):
        assert wilson_interval(np.int64(7), np.int64(10)) == wilson_interval(7, 10)


class TestNormalQuantilePin:
    """Bitwise equal to the ``scipy.stats.norm`` forms the helpers replaced."""

    @staticmethod
    def _wilson_via_norm(successes, trials, confidence):
        from scipy import stats

        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
        p_hat = successes / trials
        denominator = 1.0 + z * z / trials
        center = (p_hat + z * z / (2.0 * trials)) / denominator
        margin = (
            z
            * math.sqrt(
                p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)
            )
            / denominator
        )
        return (max(0.0, center - margin), min(1.0, center + margin))

    @pytest.mark.parametrize("confidence", [0.68, 0.9, 0.95, 0.99, 0.999])
    def test_wilson_interval_bitwise(self, confidence):
        for trials in (1, 10, 400, 10_000):
            for successes in sorted({0, 1, trials // 3, trials // 2, trials}):
                assert wilson_interval(
                    successes, trials, confidence
                ) == self._wilson_via_norm(successes, trials, confidence)

    def test_quantile_bitwise_on_a_grid(self):
        from scipy import stats
        from scipy.special import ndtri

        q = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
        assert np.array_equal(ndtri(q), stats.norm.ppf(q))

    def test_two_proportion_z_test_bitwise(self):
        from scipy import stats

        counts = [(0, 50), (3, 50), (25, 50), (49, 50), (700, 1000), (500, 1000)]
        for successes_a, trials_a in counts:
            for successes_b, trials_b in counts:
                z, p_value = two_proportion_z_test(
                    successes_a, trials_a, successes_b, trials_b
                )
                if (z, p_value) == (0.0, 1.0):
                    continue
                expected = min(1.0, 2.0 * float(stats.norm.sf(abs(z))))
                assert p_value == expected

    def test_survival_bitwise_on_a_z_grid(self):
        from scipy import stats
        from scipy.special import ndtr

        z = np.linspace(0.0, 40.0, 20_001)
        assert np.array_equal(ndtr(-z), stats.norm.sf(z))
