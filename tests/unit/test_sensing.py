"""Unit tests for repro.simulation.sensing."""

import numpy as np
import pytest

from repro.deployment.field import SensorField
from repro.errors import SimulationError
from repro.simulation.sensing import sample_detections, segment_coverage


def single_trial(sensors, waypoints):
    """Wrap single-trial inputs into batch-of-one arrays."""
    return np.asarray(sensors, float)[None, ...], np.asarray(waypoints, float)[None, ...]


class TestSegmentCoverage:
    def test_sensor_on_path_covered(self):
        sensors, waypoints = single_trial(
            [[5.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]
        )
        coverage = segment_coverage(sensors, waypoints, sensing_range=1.0)
        assert coverage.shape == (1, 1, 1)
        assert coverage[0, 0, 0]

    def test_sensor_beside_path(self):
        sensors, waypoints = single_trial([[5.0, 2.0]], [[0.0, 0.0], [10.0, 0.0]])
        assert segment_coverage(sensors, waypoints, 2.0)[0, 0, 0]
        assert not segment_coverage(sensors, waypoints, 1.9)[0, 0, 0]

    def test_sensor_past_endpoint_uses_cap_distance(self):
        sensors, waypoints = single_trial([[13.0, 4.0]], [[0.0, 0.0], [10.0, 0.0]])
        # Distance to the endpoint (10, 0) is 5.
        assert segment_coverage(sensors, waypoints, 5.0)[0, 0, 0]
        assert not segment_coverage(sensors, waypoints, 4.9)[0, 0, 0]

    def test_multi_period_contiguous_coverage(self):
        # Target passes left to right; a sensor near the middle covers a
        # contiguous run of periods.
        waypoints = [[float(x), 0.0] for x in range(0, 60, 10)]
        sensors, waypoints = single_trial([[25.0, 0.0]], waypoints)
        coverage = segment_coverage(sensors, waypoints, 12.0)[0, 0]
        covered = np.flatnonzero(coverage)
        assert covered.size > 0
        assert np.all(np.diff(covered) == 1)

    def test_static_segment(self):
        sensors, waypoints = single_trial([[1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert segment_coverage(sensors, waypoints, 2.0)[0, 0, 0]
        assert not segment_coverage(sensors, waypoints, 1.0)[0, 0, 0]

    def test_torus_wrap_detects_across_boundary(self):
        field = SensorField(100.0, 100.0)
        sensors, waypoints = single_trial(
            [[99.0, 50.0]], [[1.0, 50.0], [6.0, 50.0]]
        )
        plain = segment_coverage(sensors, waypoints, 5.0)
        wrapped = segment_coverage(sensors, waypoints, 5.0, field=field, wrap=True)
        assert not plain[0, 0, 0]
        assert wrapped[0, 0, 0]

    def test_wrap_requires_field(self):
        sensors, waypoints = single_trial([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SimulationError):
            segment_coverage(sensors, waypoints, 1.0, wrap=True)

    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            segment_coverage(np.zeros((1, 2)), np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(SimulationError):
            segment_coverage(np.zeros((1, 2, 2)), np.zeros((1, 2)), 1.0)
        with pytest.raises(SimulationError):
            segment_coverage(np.zeros((2, 1, 2)), np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(SimulationError):
            segment_coverage(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), 1.0)

    def test_negative_range_rejected(self):
        sensors, waypoints = single_trial([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SimulationError):
            segment_coverage(sensors, waypoints, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_range_rejected(self, bad):
        sensors, waypoints = single_trial(
            [[0.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        )
        with pytest.raises(SimulationError, match="finite"):
            segment_coverage(sensors, waypoints, bad)
        with pytest.raises(SimulationError, match="finite"):
            segment_coverage(sensors, waypoints, np.array([1.0, bad]))


class TestSampleDetections:
    def test_certain_detection_copies_coverage(self, rng):
        coverage = np.array([[[True, False, True]]])
        detected = sample_detections(coverage, 1.0, rng)
        np.testing.assert_array_equal(detected, coverage)
        detected[0, 0, 0] = False
        assert coverage[0, 0, 0]  # copy, not view

    def test_never_detects_outside_coverage(self, rng):
        coverage = rng.random((50, 20, 10)) < 0.5
        detected = sample_detections(coverage, 0.9, rng)
        assert not np.any(detected & ~coverage)

    def test_detection_rate_close_to_pd(self, rng):
        coverage = np.ones((200, 50, 10), dtype=bool)
        detected = sample_detections(coverage, 0.7, rng)
        assert detected.mean() == pytest.approx(0.7, abs=0.01)

    def test_zero_pd_detects_nothing(self, rng):
        coverage = np.ones((5, 5, 5), dtype=bool)
        assert not sample_detections(coverage, 0.0, rng).any()

    def test_invalid_pd_rejected(self, rng):
        with pytest.raises(SimulationError):
            sample_detections(np.ones((1, 1, 1), bool), 1.5, rng)
