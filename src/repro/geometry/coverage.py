"""Monte Carlo estimation of the coverage-count region areas.

``Region(i)`` / ``AreaH(i)`` of the paper, estimated by sampling.  Used as
an independent cross-check of the closed forms in
:mod:`repro.core.regions`, and as a fallback when the closed forms do not
apply (``M <= ms``).
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.errors import GeometryError

__all__ = ["estimate_coverage_count_areas"]


def estimate_coverage_count_areas(
    sensing_range: float,
    step_length: float,
    periods: int,
    samples: int = 200_000,
    rng: Union[None, int, np.random.Generator] = None,
) -> Dict[int, float]:
    """Monte Carlo estimate of the ``Region(i)`` areas of the S-approach.

    The target moves along the x-axis: in period ``j`` (1-based) it covers
    the segment ``[(j-1)*L, j*L] x {0}`` with ``L = step_length``.  A point
    covers the target in period ``j`` when its distance to that segment is
    at most ``sensing_range``.  ``Region(i)`` is the set of points covering
    the target in exactly ``i`` of the ``periods`` periods.

    Args:
        sensing_range: sensor sensing radius ``Rs``.
        step_length: per-period travel distance ``V * t``.
        periods: number of sensing periods ``M``.
        samples: Monte Carlo sample count.
        rng: optional numpy generator or integer seed.  Integer-seed calls
            are deterministic and therefore memoized in the shared
            :func:`repro.cache.analysis_cache` (keyed on every argument),
            so repeated cross-checks in a sweep cost one estimate.

    Returns:
        Mapping ``i -> estimated area of Region(i)`` for ``i >= 1``.  Keys
        with zero estimated area are included up to the maximum observed
        coverage count.
    """
    if sensing_range <= 0:
        raise GeometryError(f"sensing_range must be positive, got {sensing_range}")
    if step_length < 0:
        raise GeometryError(f"step_length must be non-negative, got {step_length}")
    if periods < 1:
        raise GeometryError(f"periods must be >= 1, got {periods}")
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        from repro.cache import analysis_cache

        key = (
            "mc_areas",
            float(sensing_range),
            float(step_length),
            int(periods),
            int(samples),
            int(rng),
        )
        seed = int(rng)
        return dict(
            analysis_cache().get_or_compute(
                key,
                lambda: _estimate_coverage_count_areas(
                    sensing_range,
                    step_length,
                    periods,
                    samples,
                    np.random.default_rng(seed),
                ),
            )
        )
    if rng is None:
        rng = np.random.default_rng()
    return _estimate_coverage_count_areas(
        sensing_range, step_length, periods, samples, rng
    )


def _estimate_coverage_count_areas(
    sensing_range: float,
    step_length: float,
    periods: int,
    samples: int,
    rng: np.random.Generator,
) -> Dict[int, float]:

    xmin = -sensing_range
    xmax = periods * step_length + sensing_range
    ymin, ymax = -sensing_range, sensing_range
    xs = rng.uniform(xmin, xmax, size=samples)
    ys = rng.uniform(ymin, ymax, size=samples)

    counts = np.zeros(samples, dtype=np.int64)
    for j in range(periods):
        seg_lo = j * step_length
        seg_hi = seg_lo + step_length
        # Distance from (x, y) to the horizontal segment [seg_lo, seg_hi] x {0}.
        dx = np.clip(xs, seg_lo, seg_hi) - xs
        dist_sq = dx * dx + ys * ys
        counts += dist_sq <= sensing_range * sensing_range

    box_area = (xmax - xmin) * (ymax - ymin)
    max_count = int(counts.max()) if samples else 0
    areas: Dict[int, float] = {}
    for i in range(1, max_count + 1):
        areas[i] = box_area * float(np.mean(counts == i))
    return areas
