"""Unit tests for repro.simulation.targets."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.targets import RandomWalkTarget, StraightLineTarget


@pytest.fixture
def starts() -> np.ndarray:
    return np.array([[0.0, 0.0], [100.0, 50.0], [10.0, 10.0]])


class TestStraightLineTarget:
    def test_shapes(self, starts, rng):
        waypoints = StraightLineTarget(5.0).sample_waypoints(starts, 8, 10.0, rng)
        assert waypoints.shape == (3, 9, 2)

    def test_step_length_constant(self, starts, rng):
        waypoints = StraightLineTarget(5.0).sample_waypoints(starts, 8, 10.0, rng)
        steps = np.linalg.norm(np.diff(waypoints, axis=1), axis=2)
        np.testing.assert_allclose(steps, 50.0)

    def test_collinear(self, starts, rng):
        waypoints = StraightLineTarget(5.0).sample_waypoints(starts, 6, 10.0, rng)
        # Cross product of successive steps is zero for straight motion.
        deltas = np.diff(waypoints, axis=1)
        cross = (
            deltas[:, :-1, 0] * deltas[:, 1:, 1]
            - deltas[:, :-1, 1] * deltas[:, 1:, 0]
        )
        np.testing.assert_allclose(cross, 0.0, atol=1e-6)

    def test_fixed_heading(self, starts, rng):
        waypoints = StraightLineTarget(2.0, heading=0.0).sample_waypoints(
            starts, 4, 5.0, rng
        )
        np.testing.assert_allclose(
            waypoints[:, :, 1], np.repeat(starts[:, 1:2], 5, axis=1)
        )
        np.testing.assert_allclose(
            waypoints[0, :, 0], [0.0, 10.0, 20.0, 30.0, 40.0]
        )

    def test_starts_preserved(self, starts, rng):
        waypoints = StraightLineTarget(5.0).sample_waypoints(starts, 3, 10.0, rng)
        np.testing.assert_allclose(waypoints[:, 0, :], starts)

    def test_invalid_speed_rejected(self):
        with pytest.raises(SimulationError):
            StraightLineTarget(0.0)

    def test_invalid_batch_rejected(self, rng):
        target = StraightLineTarget(5.0)
        with pytest.raises(SimulationError):
            target.sample_waypoints(np.zeros((3, 3)), 4, 10.0, rng)
        with pytest.raises(SimulationError):
            target.sample_waypoints(np.zeros((3, 2)), 0, 10.0, rng)
        with pytest.raises(SimulationError):
            target.sample_waypoints(np.zeros((3, 2)), 4, 0.0, rng)


class TestRandomWalkTarget:
    def test_step_length_constant(self, starts, rng):
        waypoints = RandomWalkTarget(5.0).sample_waypoints(starts, 10, 10.0, rng)
        steps = np.linalg.norm(np.diff(waypoints, axis=1), axis=2)
        np.testing.assert_allclose(steps, 50.0)

    def test_turns_bounded(self, starts, rng):
        max_turn = np.pi / 4.0
        waypoints = RandomWalkTarget(5.0, max_turn=max_turn).sample_waypoints(
            starts, 20, 10.0, rng
        )
        deltas = np.diff(waypoints, axis=1)
        headings = np.arctan2(deltas[..., 1], deltas[..., 0])
        turns = np.diff(headings, axis=1)
        turns = (turns + np.pi) % (2 * np.pi) - np.pi
        assert np.abs(turns).max() <= max_turn + 1e-9

    def test_zero_turn_is_straight(self, starts, rng):
        walk = RandomWalkTarget(5.0, max_turn=0.0, initial_heading=0.3)
        line = StraightLineTarget(5.0, heading=0.3)
        np.testing.assert_allclose(
            walk.sample_waypoints(starts, 5, 10.0, rng),
            line.sample_waypoints(starts, 5, 10.0, rng),
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            RandomWalkTarget(0.0)
        with pytest.raises(SimulationError):
            RandomWalkTarget(1.0, max_turn=-0.1)


class TestVaryingSpeedTarget:
    def test_speeds_within_range(self, starts, rng):
        from repro.simulation.targets import VaryingSpeedTarget

        target = VaryingSpeedTarget(4.0, 16.0)
        waypoints = target.sample_waypoints(starts, 12, 10.0, rng)
        steps = np.linalg.norm(np.diff(waypoints, axis=1), axis=2) / 10.0
        assert steps.min() >= 4.0
        assert steps.max() <= 16.0

    def test_zero_spread_matches_straight_line(self, starts, rng):
        from repro.simulation.targets import StraightLineTarget, VaryingSpeedTarget

        varying = VaryingSpeedTarget(5.0, 5.0, initial_heading=0.7)
        straight = StraightLineTarget(5.0, heading=0.7)
        np.testing.assert_allclose(
            varying.sample_waypoints(starts, 6, 10.0, rng),
            straight.sample_waypoints(starts, 6, 10.0, rng),
        )

    def test_straight_when_no_turning(self, starts, rng):
        from repro.simulation.targets import VaryingSpeedTarget

        target = VaryingSpeedTarget(2.0, 8.0)
        waypoints = target.sample_waypoints(starts, 8, 10.0, rng)
        deltas = np.diff(waypoints, axis=1)
        cross = (
            deltas[:, :-1, 0] * deltas[:, 1:, 1]
            - deltas[:, :-1, 1] * deltas[:, 1:, 0]
        )
        np.testing.assert_allclose(cross, 0.0, atol=1e-6)

    def test_turning_bounded(self, starts, rng):
        from repro.simulation.targets import VaryingSpeedTarget

        target = VaryingSpeedTarget(2.0, 8.0, max_turn=0.3)
        waypoints = target.sample_waypoints(starts, 15, 10.0, rng)
        deltas = np.diff(waypoints, axis=1)
        headings = np.arctan2(deltas[..., 1], deltas[..., 0])
        turns = np.diff(headings, axis=1)
        turns = (turns + np.pi) % (2 * np.pi) - np.pi
        assert np.abs(turns).max() <= 0.3 + 1e-9

    def test_mean_speed(self):
        from repro.simulation.targets import VaryingSpeedTarget

        assert VaryingSpeedTarget(4.0, 16.0).mean_speed == 10.0

    def test_invalid_parameters_rejected(self):
        from repro.errors import SimulationError
        from repro.simulation.targets import VaryingSpeedTarget

        with pytest.raises(SimulationError):
            VaryingSpeedTarget(0.0, 5.0)
        with pytest.raises(SimulationError):
            VaryingSpeedTarget(5.0, 4.0)
        with pytest.raises(SimulationError):
            VaryingSpeedTarget(2.0, 5.0, max_turn=-1.0)
