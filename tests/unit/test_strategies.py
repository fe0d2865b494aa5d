"""Unit tests for repro.deployment.strategies."""

import numpy as np
import pytest

from repro.deployment.field import SensorField
from repro.deployment.strategies import deploy_grid, deploy_uniform
from repro.errors import DeploymentError


@pytest.fixture
def field() -> SensorField:
    return SensorField(100.0, 50.0)


class TestDeployUniform:
    def test_shape_and_bounds(self, field):
        points = deploy_uniform(field, 200, rng=1)
        assert points.shape == (200, 2)
        assert points[:, 0].min() >= 0.0 and points[:, 0].max() <= field.width
        assert points[:, 1].min() >= 0.0 and points[:, 1].max() <= field.height

    def test_seed_reproducibility(self, field):
        a = deploy_uniform(field, 50, rng=7)
        b = deploy_uniform(field, 50, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, field):
        a = deploy_uniform(field, 50, rng=1)
        b = deploy_uniform(field, 50, rng=2)
        assert not np.array_equal(a, b)

    def test_accepts_generator(self, field, rng):
        points = deploy_uniform(field, 10, rng=rng)
        assert points.shape == (10, 2)

    def test_zero_sensors(self, field):
        assert deploy_uniform(field, 0).shape == (0, 2)

    def test_negative_count_rejected(self, field):
        with pytest.raises(DeploymentError):
            deploy_uniform(field, -1)

    def test_roughly_uniform_marginals(self, field):
        points = deploy_uniform(field, 20_000, rng=3)
        # Mean of U(0, W) is W/2; allow 3 sigma.
        assert points[:, 0].mean() == pytest.approx(50.0, abs=1.5)
        assert points[:, 1].mean() == pytest.approx(25.0, abs=0.8)


class TestDeployGrid:
    def test_exact_count(self, field):
        assert deploy_grid(field, 37).shape == (37, 2)

    def test_zero_sensors(self, field):
        assert deploy_grid(field, 0).shape == (0, 2)

    def test_no_jitter_is_deterministic(self, field):
        np.testing.assert_array_equal(deploy_grid(field, 24), deploy_grid(field, 24))

    def test_points_inside_field(self, field):
        points = deploy_grid(field, 100, jitter=30.0, rng=2)
        assert np.all((points[:, 0] >= 0) & (points[:, 0] <= field.width))
        assert np.all((points[:, 1] >= 0) & (points[:, 1] <= field.height))

    def test_jitter_moves_points(self, field):
        plain = deploy_grid(field, 16)
        jittered = deploy_grid(field, 16, jitter=5.0, rng=3)
        assert not np.array_equal(plain, jittered)

    def test_grid_spreads_over_field(self, field):
        points = deploy_grid(field, 50)
        # Sanity: points span most of both axes.
        assert points[:, 0].max() - points[:, 0].min() > 0.7 * field.width
        assert points[:, 1].max() - points[:, 1].min() > 0.5 * field.height

    def test_invalid_inputs_rejected(self, field):
        with pytest.raises(DeploymentError):
            deploy_grid(field, -1)
        with pytest.raises(DeploymentError):
            deploy_grid(field, 10, jitter=-1.0)
