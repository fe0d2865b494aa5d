"""Vectorised coverage and detection sampling.

The simulator's inner loop, matching the paper's procedure: "For each
sensing period, we compute the geographical region the moving target passes
and compare that with the locations of all sensor nodes" — i.e. a sensor
can detect the target in period ``j`` when its distance to the period-``j``
path segment is at most ``Rs``, and then actually detects it with
probability ``Pd``.

Everything operates on batched arrays: ``B`` independent trials, ``N``
sensors, ``M`` periods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.deployment.field import SensorField
from repro.errors import SimulationError

__all__ = ["segment_coverage", "sample_detections", "apply_availability"]


def apply_availability(
    coverage: np.ndarray, availability: np.ndarray
) -> np.ndarray:
    """Mask coverage by per-(trial, sensor, period) availability.

    A sensor that is asleep, dead, dropped out, or stuck cannot sense the
    target even when it is in range; this applies a duty-cycle or
    fault-model availability mask (see :mod:`repro.faults`) to the
    coverage tensor.

    Args:
        coverage: boolean ``(B, N, M)`` from :func:`segment_coverage`.
        availability: boolean array of the same shape; ``True`` where the
            sensor is functional that period.

    Returns:
        ``coverage & availability`` (a new array).

    Raises:
        SimulationError: on a shape mismatch.
    """
    coverage = np.asarray(coverage, dtype=bool)
    availability = np.asarray(availability, dtype=bool)
    if availability.shape != coverage.shape:
        raise SimulationError(
            f"availability shape {availability.shape} does not match "
            f"coverage shape {coverage.shape}"
        )
    return coverage & availability


def segment_coverage(
    sensor_xy: np.ndarray,
    waypoints: np.ndarray,
    sensing_range,
    field: Optional[SensorField] = None,
    wrap: bool = False,
) -> np.ndarray:
    """Which sensors are within sensing range of each period's path segment.

    Args:
        sensor_xy: ``(B, N, 2)`` sensor positions (one deployment per trial).
        waypoints: ``(B, M + 1, 2)`` target positions at period boundaries.
        sensing_range: ``Rs`` — a scalar, or an ``(N,)`` array of
            per-sensor ranges (heterogeneous fleets).
        field: required when ``wrap=True``; provides torus dimensions.
        wrap: measure sensor-to-segment displacement on the torus (nearest
            periodic image per axis, taken relative to the segment
            midpoint).  Valid as long as segment half-length plus ``Rs`` is
            far below half the field dimensions, which sparse scenarios
            satisfy by construction.

    Only the sensors inside the bounding box of a trial's track, grown by
    ``Rs``, are tested against its segments; the others cannot be in
    range.  The result is the same, bit for bit, as testing every sensor
    against every segment.

    Returns:
        Boolean array ``(B, N, M)``: entry ``(b, s, j)`` says sensor ``s``
        covers the target during period ``j + 1`` of trial ``b``.

    Raises:
        SimulationError: on shape mismatches, a negative or non-finite
            ``sensing_range``, or a missing ``field`` when ``wrap=True``.
    """
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    waypoints = np.asarray(waypoints, dtype=float)
    if sensor_xy.ndim != 3 or sensor_xy.shape[2] != 2:
        raise SimulationError(
            f"sensor_xy must have shape (B, N, 2), got {sensor_xy.shape}"
        )
    if waypoints.ndim != 3 or waypoints.shape[2] != 2:
        raise SimulationError(
            f"waypoints must have shape (B, M + 1, 2), got {waypoints.shape}"
        )
    if waypoints.shape[0] != sensor_xy.shape[0]:
        raise SimulationError(
            f"batch sizes differ: sensors {sensor_xy.shape[0]}, "
            f"waypoints {waypoints.shape[0]}"
        )
    if waypoints.shape[1] < 2:
        raise SimulationError("waypoints must contain at least two positions")
    sensing_range = np.asarray(sensing_range, dtype=float)
    if sensing_range.ndim not in (0, 1):
        raise SimulationError(
            f"sensing_range must be a scalar or (N,) array, got shape "
            f"{sensing_range.shape}"
        )
    if sensing_range.ndim == 1 and sensing_range.shape[0] != sensor_xy.shape[1]:
        raise SimulationError(
            f"per-sensor sensing_range has {sensing_range.shape[0]} entries "
            f"for {sensor_xy.shape[1]} sensors"
        )
    if not np.isfinite(sensing_range).all():
        raise SimulationError("sensing_range must be finite")
    if (sensing_range < 0).any():
        raise SimulationError("sensing_range must be non-negative")
    if wrap and field is None:
        raise SimulationError("wrap=True requires a field")

    batch, num_sensors, _ = sensor_xy.shape
    num_periods = waypoints.shape[1] - 1
    covered = np.zeros((batch, num_sensors, num_periods), dtype=bool)
    range_max = float(sensing_range.max(initial=0.0))

    # Candidate stage, once per trial.  Every segment lies in the box of
    # the trial's waypoints (centre c, half-extent h).  A sensor within Rs
    # of a segment has some image p with |p - c| <= h + Rs per axis, and
    # the nearest image to c, wrap(s - c), is no farther; so a sensor
    # outside the box grown by Rs covers nothing.  Where h + Rs reaches
    # half the field the test passes every sensor on that axis.  The
    # ``1e-9 * scale`` margin absorbs the rounding of both stages.
    low = waypoints.min(axis=1)
    high = waypoints.max(axis=1)
    centre = 0.5 * (low + high)  # (B, 2)
    scale = np.abs(waypoints).max(initial=0.0) + range_max
    if wrap:
        scale += field.width + field.height
    reach = 0.5 * (high - low) + (range_max + 1e-9 * scale)  # (B, 2)
    dx = sensor_xy[..., 0] - centre[:, 0, None]  # (B, N)
    dy = sensor_xy[..., 1] - centre[:, 1, None]
    if wrap:
        dx, dy = field.wrapped_delta(dx, dy)
    near = (np.abs(dx) <= reach[:, 0, None]) & (np.abs(dy) <= reach[:, 1, None])
    # A non-finite waypoint says nothing about the others' segments.
    near[~np.isfinite(reach).all(axis=1)] = True
    trial_index, sensor_index = np.nonzero(near)  # sorted by trial
    if trial_index.size == 0:
        return covered

    # Exact stage: the point-to-segment test, on candidate pairs only,
    # with the same operations in the same order as a dense pass.  Per
    # trial values reach the candidates by ``np.repeat`` over the sorted
    # trial index.
    per_trial = near.sum(axis=1)
    candidates = sensor_xy[trial_index, sensor_index]  # (K, 2)
    range_sq = sensing_range * sensing_range
    if range_sq.ndim == 1:
        range_sq = range_sq[sensor_index]  # (K,)
    midpoints = 0.5 * (waypoints[:, :-1, :] + waypoints[:, 1:, :])  # (B, M, 2)
    half_vecs = 0.5 * (waypoints[:, 1:, :] - waypoints[:, :-1, :])
    half_len_sqs = np.einsum("bmi,bmi->bm", half_vecs, half_vecs)  # (B, M)
    hits = np.empty((trial_index.size, num_periods), dtype=bool)
    for j in range(num_periods):
        half_vec = np.repeat(half_vecs[:, j], per_trial, axis=0)  # (K, 2)
        half_len_sq = np.repeat(half_len_sqs[:, j], per_trial)  # (K,)
        delta = candidates - np.repeat(midpoints[:, j], per_trial, axis=0)
        if wrap:
            delta = np.stack(
                field.wrapped_delta(delta[:, 0], delta[:, 1]), axis=-1
            )
        projection = np.einsum("ki,ki->k", delta, half_vec)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(
                half_len_sq > 0.0,
                projection / np.where(half_len_sq > 0.0, half_len_sq, 1.0),
                0.0,
            )
        t = np.clip(t, -1.0, 1.0)
        closest = t[:, None] * half_vec
        offset = delta - closest
        dist_sq = np.einsum("ki,ki->k", offset, offset)
        hits[:, j] = dist_sq <= range_sq
    covered[trial_index, sensor_index] = hits
    return covered


def sample_detections(
    coverage: np.ndarray, detect_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli(``Pd``) detection outcomes for every covered (sensor, period).

    Args:
        coverage: boolean ``(B, N, M)`` from :func:`segment_coverage`.
        detect_prob: ``Pd``.
        rng: numpy generator.

    Returns:
        Boolean array of the same shape: which covered pairs produced a
        detection report.
    """
    coverage = np.asarray(coverage, dtype=bool)
    if not 0.0 <= detect_prob <= 1.0:
        raise SimulationError(f"detect_prob must be in [0, 1], got {detect_prob}")
    if detect_prob == 1.0:
        return coverage.copy()
    return coverage & (rng.random(coverage.shape) < detect_prob)
