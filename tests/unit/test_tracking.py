"""Unit tests for repro.tracking."""

import math

import numpy as np
import pytest

from repro.detection.reports import DetectionReport
from repro.errors import AnalysisError
from repro.geometry.shapes import Point
from repro.tracking import (
    cross_track_rmse,
    estimate_track,
    heading_error,
    speed_error,
)


def report(node_id, period, x, y) -> DetectionReport:
    return DetectionReport(node_id, period, Point(x, y))


def straight_track_reports(speed=10.0, period_length=60.0, periods=8, noise=0.0, rng=None):
    """Reports from sensors sitting exactly on (or near) a horizontal track."""
    reports = []
    for p in range(1, periods + 1):
        # Sensor near the midpoint of period p's segment.
        x_mid = (p - 0.5) * speed * period_length
        dx = dy = 0.0
        if noise and rng is not None:
            dx, dy = rng.normal(0.0, noise, size=2)
        reports.append(report(p, p, x_mid + dx, dy))
    return reports


class TestEstimateTrackExact:
    def test_perfect_reports_recover_track(self):
        reports = straight_track_reports()
        estimate = estimate_track(reports, 60.0)
        assert estimate.speed == pytest.approx(10.0, rel=1e-9)
        assert abs(estimate.heading) == pytest.approx(0.0, abs=1e-9)
        predicted = estimate.position_at(3)
        assert predicted[0] == pytest.approx(2.5 * 600.0, rel=1e-9)
        assert predicted[1] == pytest.approx(0.0, abs=1e-6)

    def test_direction_follows_motion(self):
        # Track moving in -x: direction must point along motion, speed > 0.
        reports = [report(p, p, -600.0 * p, 0.0) for p in range(1, 6)]
        estimate = estimate_track(reports, 60.0)
        assert estimate.direction[0] == pytest.approx(-1.0, abs=1e-9)
        assert estimate.speed > 0.0

    def test_diagonal_track(self):
        reports = [
            report(p, p, 100.0 * p, 100.0 * p) for p in range(1, 6)
        ]
        estimate = estimate_track(reports, 10.0)
        assert estimate.heading == pytest.approx(math.pi / 4.0, abs=1e-9)
        assert estimate.speed == pytest.approx(math.hypot(100, 100) / 10.0, rel=1e-9)

    def test_multiple_reports_per_period_averaged(self):
        reports = [
            report(0, 1, 0.0, 50.0),
            report(1, 1, 0.0, -50.0),  # centroid (0, 0)
            report(2, 2, 600.0, 80.0),
            report(3, 2, 600.0, -80.0),  # centroid (600, 0)
        ]
        estimate = estimate_track(reports, 60.0)
        assert estimate.speed == pytest.approx(10.0, rel=1e-9)

    def test_report_order_irrelevant(self, rng):
        reports = straight_track_reports(noise=30.0, rng=rng)
        shuffled = list(reports)
        rng.shuffle(shuffled)
        a = estimate_track(reports, 60.0)
        b = estimate_track(shuffled, 60.0)
        np.testing.assert_allclose(a.position_at(4), b.position_at(4))


class TestEstimateTrackValidation:
    def test_single_period_rejected(self):
        reports = [report(0, 1, 0.0, 0.0), report(1, 1, 10.0, 0.0)]
        with pytest.raises(AnalysisError):
            estimate_track(reports, 60.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            estimate_track([], 60.0)

    def test_coincident_centroids_rejected(self):
        reports = [report(0, p, 5.0, 5.0) for p in range(1, 5)]
        with pytest.raises(AnalysisError):
            estimate_track(reports, 60.0)

    def test_invalid_period_length_rejected(self):
        with pytest.raises(AnalysisError):
            estimate_track(straight_track_reports(), 0.0)


class TestMetrics:
    @pytest.fixture
    def truth(self):
        # Horizontal track: waypoints every 600 m, 8 periods.
        return np.array([[600.0 * p, 0.0] for p in range(9)])

    def test_perfect_estimate_has_zero_errors(self, truth):
        estimate = estimate_track(straight_track_reports(), 60.0)
        assert cross_track_rmse(estimate, truth) == pytest.approx(0.0, abs=1e-6)
        assert heading_error(estimate, truth) == pytest.approx(0.0, abs=1e-9)
        assert speed_error(estimate, truth) == pytest.approx(0.0, abs=1e-9)

    def test_noisy_estimate_bounded_errors(self, truth, rng):
        estimate = estimate_track(
            straight_track_reports(noise=100.0, rng=rng), 60.0
        )
        assert cross_track_rmse(estimate, truth) < 300.0
        assert heading_error(estimate, truth) < math.radians(20.0)

    def test_offset_track_cross_track_error(self, truth):
        # Reports shifted 200 m off the true track line.
        reports = [report(p, p, (p - 0.5) * 600.0, 200.0) for p in range(1, 9)]
        estimate = estimate_track(reports, 60.0)
        assert cross_track_rmse(estimate, truth) == pytest.approx(200.0, rel=0.01)

    def test_degenerate_truth_rejected(self):
        estimate = estimate_track(straight_track_reports(), 60.0)
        with pytest.raises(AnalysisError):
            heading_error(estimate, np.array([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(AnalysisError):
            cross_track_rmse(estimate, np.array([[0.0, 0.0]]))


class TestEndToEndTracking:
    def test_simulated_episode_tracking(self, rng):
        """Full pipeline: simulate reports, estimate, verify against truth."""
        from repro.experiments.presets import onr_scenario
        from repro.simulation.streams import simulate_report_stream

        scenario = onr_scenario(num_sensors=240, speed=10.0)
        successes = 0
        for _ in range(20):
            episode = simulate_report_stream(scenario, rng=rng)
            reports = [r for _, rs in episode.stream() for r in rs]
            try:
                estimate = estimate_track(reports, scenario.sensing_period)
            except AnalysisError:
                continue
            successes += 1
            # Reports localise to within Rs, so the fitted track cannot
            # stray many sensing ranges from the truth.
            assert cross_track_rmse(estimate, episode.waypoints) < 3 * 1000.0
        assert successes >= 10
