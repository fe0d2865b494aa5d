"""Unit tests for repro.core.design."""

import pytest

from repro.core.design import (
    DesignPoint,
    design_deployment,
    detection_probability,
    maximum_threshold,
    minimum_sensors,
)
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario


class TestDetectionProbability:
    def test_matches_ms_analysis(self, onr):
        assert detection_probability(onr) == pytest.approx(
            MarkovSpatialAnalysis(onr, 3).detection_probability()
        )


class TestMinimumSensors:
    def test_empty_feasible_set_returns_none(self, small):
        # No N in the whole range satisfies the target: every candidate
        # was evaluated and rejected, not just a short-circuit.
        assert minimum_sensors(small, 0.9, max_sensors=5) is None

    def test_target_exactly_at_grid_boundary(self, small):
        # The scan's comparison is >=: a requirement equal to a grid
        # value bit-for-bit must select exactly that N, not N + 1.
        n = minimum_sensors(small, 0.3, max_sensors=64)
        boundary = detection_probability(small.replace(num_sensors=n))
        assert minimum_sensors(small, boundary, max_sensors=64) == n

    def test_single_point_range(self, small):
        # max_sensors=1 degenerates to evaluating N=1 only.
        assert minimum_sensors(small, 0.9, max_sensors=1) is None
        low = detection_probability(small.replace(num_sensors=1)) / 2
        assert minimum_sensors(small, low, max_sensors=1) == 1

    def test_result_is_minimal(self):
        template = onr_scenario()
        n = minimum_sensors(template, 0.90, max_sensors=400)
        assert n is not None
        assert detection_probability(template.replace(num_sensors=n)) >= 0.90
        assert detection_probability(template.replace(num_sensors=n - 1)) < 0.90

    def test_matches_known_curve(self):
        # From FIG9A: P[detect] crosses 0.90 between N = 150 and N = 180
        # at V = 10.
        n = minimum_sensors(onr_scenario(), 0.90, max_sensors=400)
        assert 150 < n <= 180

    def test_unreachable_returns_none(self):
        assert minimum_sensors(onr_scenario(), 0.999999, max_sensors=100) is None

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            minimum_sensors(onr_scenario(), 1.5)
        with pytest.raises(AnalysisError):
            minimum_sensors(onr_scenario(), 0.5, max_sensors=0)


class TestMaximumThreshold:
    def test_result_is_maximal(self, onr):
        k = maximum_threshold(onr, 0.90)
        assert k is not None
        assert detection_probability(onr.replace(threshold=k)) >= 0.90
        assert detection_probability(onr.replace(threshold=k + 1)) < 0.90

    def test_strict_requirement_may_fail_entirely(self):
        scenario = onr_scenario(num_sensors=60)
        assert maximum_threshold(scenario, 0.99) is None

    def test_invalid_requirement_rejected(self, onr):
        with pytest.raises(AnalysisError):
            maximum_threshold(onr, 0.0)

    def test_target_exactly_at_grid_boundary(self, small):
        # A requirement equal (bit-for-bit) to P[detect] at some k must
        # keep that k: the first *failing* index is strictly below it.
        k = maximum_threshold(small, 0.2)
        boundary = detection_probability(small.replace(threshold=k))
        assert maximum_threshold(small, boundary) == k


class TestDesignDeployment:
    def test_feasible_design_found(self):
        template = onr_scenario()
        design = design_deployment(
            template,
            required_probability=0.85,
            node_false_alarm_prob=1e-4,
            max_window_fa_probability=1e-6,
            max_sensors=400,
        )
        assert isinstance(design, DesignPoint)
        assert design.detection_probability >= 0.85
        assert design.window_false_alarm_probability <= 1e-6
        # The chosen threshold is the FA-safe one, not the template's.
        assert design.scenario.threshold >= 1

    def test_infeasible_returns_none(self):
        design = design_deployment(
            onr_scenario(),
            required_probability=0.99,
            node_false_alarm_prob=5e-3,  # forces enormous k
            max_window_fa_probability=1e-9,
            max_sensors=300,
        )
        assert design is None

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(AnalysisError):
            design_deployment(onr_scenario(), 0.9, 1e-4, 1e-6, max_sensors=0)


class TestMaxSensorsCliValidation:
    def test_invalid_max_sensors_reaches_cli(self):
        # --max-sensors is forwarded unchecked to design_deployment,
        # whose validation is the single source of truth.
        from repro.experiments.cli import main

        with pytest.raises(AnalysisError):
            main(["design", "--max-sensors", "0"])
