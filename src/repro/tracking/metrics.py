"""Track-quality metrics: estimated vs. true trajectory.

The true trajectory is the waypoint array the simulator used
(``(M + 1, 2)``, positions at period boundaries).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AnalysisError
from repro.tracking.estimate import TrackEstimate

__all__ = ["cross_track_rmse", "heading_error", "speed_error"]


def _point_to_polyline_distance(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest point of the polyline."""
    best = np.full(points.shape[0], np.inf)
    for start, end in zip(polyline[:-1], polyline[1:]):
        seg = end - start
        seg_len_sq = float(seg @ seg)
        rel = points - start
        if seg_len_sq == 0.0:
            distances = np.linalg.norm(rel, axis=1)
        else:
            t = np.clip(rel @ seg / seg_len_sq, 0.0, 1.0)
            distances = np.linalg.norm(rel - t[:, None] * seg[None, :], axis=1)
        best = np.minimum(best, distances)
    return best


def cross_track_rmse(estimate: TrackEstimate, waypoints: np.ndarray) -> float:
    """RMS distance from estimated positions to the true track polyline.

    This ignores along-track (timing) error: it measures only how far the
    estimated path strays from the true path.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    if waypoints.ndim != 2 or waypoints.shape[1] != 2 or waypoints.shape[0] < 2:
        raise AnalysisError(
            f"waypoints must have shape (M + 1, 2), got {waypoints.shape}"
        )
    predicted = estimate.predicted_positions()
    distances = _point_to_polyline_distance(predicted, waypoints)
    return math.sqrt(float(np.mean(distances**2)))


def heading_error(estimate: TrackEstimate, waypoints: np.ndarray) -> float:
    """Absolute angle (radians, in ``[0, pi]``) between estimated and true motion.

    The true heading is taken from the overall displacement (last waypoint
    minus first) — exact for straight tracks, the model's assumption.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    displacement = waypoints[-1] - waypoints[0]
    norm = np.linalg.norm(displacement)
    if norm == 0.0:
        raise AnalysisError("true track has zero displacement")
    cosine = float(np.clip(estimate.direction @ (displacement / norm), -1.0, 1.0))
    return math.acos(cosine)


def speed_error(estimate: TrackEstimate, waypoints: np.ndarray) -> float:
    """``estimated speed - true mean speed`` in m/s (signed)."""
    waypoints = np.asarray(waypoints, dtype=float)
    num_periods = waypoints.shape[0] - 1
    if num_periods < 1:
        raise AnalysisError("waypoints must span at least one period")
    path_length = float(
        np.linalg.norm(np.diff(waypoints, axis=0), axis=1).sum()
    )
    true_speed = path_length / (num_periods * estimate.period_length)
    return estimate.speed - true_speed
