"""Unit tests for repro.core.duty_cycle."""

import pytest

from repro.core.duty_cycle import apply_duty_cycle, lifetime_multiplier
from repro.errors import AnalysisError


class TestApplyDutyCycle:
    def test_scales_detect_prob(self, onr):
        effective = apply_duty_cycle(onr, 0.5)
        assert effective.detect_prob == pytest.approx(0.45)

    def test_full_duty_is_identity(self, onr):
        assert apply_duty_cycle(onr, 1.0) == onr

    def test_other_fields_untouched(self, onr):
        effective = apply_duty_cycle(onr, 0.25)
        assert effective.num_sensors == onr.num_sensors
        assert effective.window == onr.window
        assert effective.ms == onr.ms

    def test_detection_probability_decreases(self, onr):
        from repro.core.markov_spatial import MarkovSpatialAnalysis

        values = [
            MarkovSpatialAnalysis(apply_duty_cycle(onr, d)).detection_probability()
            for d in (1.0, 0.5, 0.25)
        ]
        assert values == sorted(values, reverse=True)

    def test_invalid_duty_rejected(self, onr):
        with pytest.raises(AnalysisError):
            apply_duty_cycle(onr, 0.0)
        with pytest.raises(AnalysisError):
            apply_duty_cycle(onr, 1.5)


class TestLifetimeMultiplier:
    def test_reciprocal(self):
        assert lifetime_multiplier(0.25) == pytest.approx(4.0)
        assert lifetime_multiplier(1.0) == pytest.approx(1.0)

    def test_invalid_duty_rejected(self):
        with pytest.raises(AnalysisError):
            lifetime_multiplier(0.0)


class TestSimulatorFoldEquivalence:
    def test_explicit_sleep_matches_folded_analysis(self, small):
        """The core identity: random sleep masks == scaled Pd."""
        from repro.simulation.runner import MonteCarloSimulator

        duty = 0.6
        explicit = MonteCarloSimulator(
            small, trials=6000, seed=9, duty_cycle=duty
        ).run()
        folded = MonteCarloSimulator(
            apply_duty_cycle(small, duty), trials=6000, seed=9
        ).run()
        assert explicit.detection_probability == pytest.approx(
            folded.detection_probability, abs=0.025
        )

    def test_sleeping_sensors_do_not_false_alarm(self, small):
        from repro.simulation.runner import MonteCarloSimulator

        awake = MonteCarloSimulator(
            small, trials=2000, seed=10, false_alarm_prob=0.02
        ).run()
        sleepy = MonteCarloSimulator(
            small, trials=2000, seed=10, false_alarm_prob=0.02, duty_cycle=0.3
        ).run()
        assert sleepy.false_report_counts.sum() < 0.5 * awake.false_report_counts.sum()

    def test_invalid_duty_rejected(self, small):
        from repro.errors import SimulationError
        from repro.simulation.runner import MonteCarloSimulator

        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, duty_cycle=0.0)
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, duty_cycle=1.2)
