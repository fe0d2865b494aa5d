"""Test oracles for :func:`repro.simulation.sensing.segment_coverage`.

``reference_segment_coverage`` is the dense form of the coverage test:
every sensor against every period's segment, one vectorised pass per
period.  ``segment_coverage`` prunes to the sensors near each track first
and must stay bitwise equal to it.

``hypot_segment_coverage`` shares no arithmetic with either: a pure-Python
``math.hypot`` point-to-segment distance, minimised over the nine torus
images of the sensor.  It catches a geometry bug common to both numpy
forms.
"""

from __future__ import annotations

import math

import numpy as np


def reference_segment_coverage(sensor_xy, waypoints, sensing_range, field=None, wrap=False):
    """Dense ``(B, N, M)`` coverage: every (trial, sensor, period) evaluated."""
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    waypoints = np.asarray(waypoints, dtype=float)
    sensing_range = np.asarray(sensing_range, dtype=float)
    batch, num_sensors, _ = sensor_xy.shape
    num_periods = waypoints.shape[1] - 1
    covered = np.empty((batch, num_sensors, num_periods), dtype=bool)
    range_sq = sensing_range * sensing_range  # scalar or (N,), broadcasts over (B, N)

    for j in range(num_periods):
        seg_start = waypoints[:, j, :]  # (B, 2)
        seg_end = waypoints[:, j + 1, :]
        midpoint = 0.5 * (seg_start + seg_end)
        half_vec = 0.5 * (seg_end - seg_start)  # (B, 2)

        delta = sensor_xy - midpoint[:, None, :]  # (B, N, 2)
        if wrap:
            dx, dy = field.wrapped_delta(delta[..., 0], delta[..., 1])
            delta = np.stack([dx, dy], axis=-1)

        half_len_sq = np.einsum("bi,bi->b", half_vec, half_vec)  # (B,)
        projection = np.einsum("bni,bi->bn", delta, half_vec)  # (B, N)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(
                half_len_sq[:, None] > 0.0,
                projection / np.where(half_len_sq[:, None] > 0.0, half_len_sq[:, None], 1.0),
                0.0,
            )
        t = np.clip(t, -1.0, 1.0)
        closest = t[:, :, None] * half_vec[:, None, :]
        offset = delta - closest
        dist_sq = np.einsum("bni,bni->bn", offset, offset)
        covered[:, :, j] = dist_sq <= range_sq
    return covered


def point_segment_distance(px, py, ax, ay, bx, by):
    """Euclidean distance from ``(px, py)`` to the segment ``a``-``b``."""
    ux, uy = bx - ax, by - ay
    length_sq = ux * ux + uy * uy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ux + (py - ay) * uy) / length_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * ux), py - (ay + t * uy))


def hypot_segment_distances(sensor_xy, waypoints, field=None, wrap=False):
    """``(B, N, M)`` sensor-to-segment distances, in pure Python.

    With ``wrap`` the distance is the minimum over the sensor's nine
    periodic images (shifts of -1, 0, +1 field widths and heights), which
    is the torus distance whenever a segment is shorter than half the
    field.
    """
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    waypoints = np.asarray(waypoints, dtype=float)
    batch, num_sensors, _ = sensor_xy.shape
    num_periods = waypoints.shape[1] - 1
    shifts = [(0.0, 0.0)]
    if wrap:
        shifts = [
            (i * field.width, j * field.height)
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        ]
    out = np.empty((batch, num_sensors, num_periods))
    for b in range(batch):
        for s in range(num_sensors):
            px, py = (float(v) for v in sensor_xy[b, s])
            for m in range(num_periods):
                ax, ay = (float(v) for v in waypoints[b, m])
                bx, by = (float(v) for v in waypoints[b, m + 1])
                out[b, s, m] = min(
                    point_segment_distance(px + sx, py + sy, ax, ay, bx, by)
                    for sx, sy in shifts
                )
    return out
