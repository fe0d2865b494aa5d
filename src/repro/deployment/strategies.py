"""Sensor placement strategies.

The paper assumes a uniform random deployment ("primarily for ease of
analysis", Section 2); :func:`deploy_uniform` is what every reproduction
experiment uses.  :func:`deploy_grid` is provided for
deployment-sensitivity studies: a perturbed grid models planned
deployments with placement error (e.g. air-dropped or moored sensors that
drift, Section 2's undersea motivation).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.deployment.field import SensorField
from repro.errors import DeploymentError

__all__ = [
    "deploy_uniform",
    "deploy_grid",
    "deploy_grid_batched",
]

_RngLike = Union[None, int, np.random.Generator]


def _as_rng(rng: _RngLike) -> np.random.Generator:
    """Normalise ``None`` / seed / generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def deploy_uniform(
    field: SensorField, num_sensors: int, rng: _RngLike = None
) -> np.ndarray:
    """Place ``num_sensors`` i.i.d. uniform points in the field.

    Args:
        field: the deployment field.
        num_sensors: number of sensors (non-negative).
        rng: ``None``, an integer seed, or a numpy Generator.

    Returns:
        ``(num_sensors, 2)`` float array of positions.
    """
    if num_sensors < 0:
        raise DeploymentError(f"num_sensors must be non-negative, got {num_sensors}")
    generator = _as_rng(rng)
    return generator.uniform(
        (0.0, 0.0), (field.width, field.height), size=(num_sensors, 2)
    )


def deploy_grid(
    field: SensorField,
    num_sensors: int,
    jitter: float = 0.0,
    rng: _RngLike = None,
) -> np.ndarray:
    """Near-square grid of ``num_sensors`` points, optionally jittered.

    The grid has ``ceil(sqrt(num_sensors * aspect))`` columns so cells stay
    close to square for non-square fields; the first ``num_sensors`` cell
    centers (row-major) are used.  ``jitter`` adds independent uniform noise
    in ``[-jitter, +jitter]`` per axis, clipped back into the field.

    Args:
        field: the deployment field.
        num_sensors: number of sensors (non-negative).
        jitter: maximum absolute placement error per axis (non-negative).
        rng: ``None``, an integer seed, or a numpy Generator.

    Returns:
        ``(num_sensors, 2)`` float array of positions.
    """
    if num_sensors < 0:
        raise DeploymentError(f"num_sensors must be non-negative, got {num_sensors}")
    if jitter < 0:
        raise DeploymentError(f"jitter must be non-negative, got {jitter}")
    if num_sensors == 0:
        return np.empty((0, 2), dtype=float)

    aspect = field.width / field.height
    cols = max(1, math.ceil(math.sqrt(num_sensors * aspect)))
    rows = max(1, math.ceil(num_sensors / cols))
    xs = (np.arange(cols) + 0.5) * (field.width / cols)
    ys = (np.arange(rows) + 0.5) * (field.height / rows)
    grid_x, grid_y = np.meshgrid(xs, ys)
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])[:num_sensors]

    if jitter > 0:
        generator = _as_rng(rng)
        points = points + generator.uniform(-jitter, jitter, size=points.shape)
        points[:, 0] = np.clip(points[:, 0], 0.0, field.width)
        points[:, 1] = np.clip(points[:, 1], 0.0, field.height)
    return points


def deploy_grid_batched(
    field: SensorField,
    num_sensors: int,
    rng: _RngLike = None,
    batch: int = 1,
    jitter: float = 0.0,
) -> np.ndarray:
    """Batched :func:`deploy_grid`: ``batch`` independent jittered grids.

    Matches the :class:`~repro.simulation.runner.MonteCarloSimulator`
    batched deployment convention (fourth parameter named ``batch``), so
    passing ``functools.partial(deploy_grid_batched, jitter=500.0)`` as
    ``deployment=`` draws one jitter block per vectorised batch instead of
    one Python call per trial — and stays picklable for parallel runs.

    Returns:
        ``(batch, num_sensors, 2)`` float array of positions.
    """
    if batch < 1:
        raise DeploymentError(f"batch must be >= 1, got {batch}")
    base = deploy_grid(field, num_sensors, jitter=0.0)
    points = np.broadcast_to(base, (batch,) + base.shape).copy()
    if jitter < 0:
        raise DeploymentError(f"jitter must be non-negative, got {jitter}")
    if jitter > 0 and num_sensors > 0:
        generator = _as_rng(rng)
        points += generator.uniform(-jitter, jitter, size=points.shape)
        points[..., 0] = np.clip(points[..., 0], 0.0, field.width)
        points[..., 1] = np.clip(points[..., 1], 0.0, field.height)
    return points
