"""Truncation selection: how large must ``g``, ``gh``, ``G`` be? (Fig. 8)

Every truncated stage captures the event "at most ``g`` sensors inside the
region", whose probability is a binomial CDF.  Given a user accuracy target
``eta_R``:

* the M-S-approach needs ``xi_h * xi^(M-1) >= eta_R`` (Eq. 14); following
  the paper ("let xi_h = xi for simplicity"), both per-stage accuracies are
  required to reach ``eta_R ** (1/M)``;
* the S-approach needs ``eta_S >= eta_R`` directly (Eq. 5).
"""

from __future__ import annotations

import math

from repro.core.regions import s_approach_regions
from repro.core.scenario import Scenario
from repro.errors import AnalysisError, require_count

__all__ = [
    "stage_accuracy",
    "required_truncation",
    "required_head_truncation",
    "required_body_truncation",
    "required_s_approach_truncation",
]


def stage_accuracy(
    num_sensors: int, region_area: float, field_area: float, max_sensors: int
) -> float:
    """Probability of at most ``max_sensors`` sensors inside a region.

    ``Binomial(N, area/S)`` CDF at ``max_sensors`` — this is ``xi_h``
    (Eq. 7) for the Head NEDR, ``xi`` (Eq. 9) for a Body NEDR, and
    ``eta_S`` (Eq. 5) for the whole ARegion, depending on the area passed.

    Raises:
        AnalysisError: if a count is not an integer or is negative, or the
            areas are not finite with ``0 <= region_area <= field_area``.
    """
    from scipy import stats

    require_count("num_sensors", num_sensors, AnalysisError)
    require_count("max_sensors", max_sensors, AnalysisError)
    if not (math.isfinite(field_area) and field_area > 0):
        raise AnalysisError(
            f"field_area must be positive and finite, got {field_area}"
        )
    if not 0 <= region_area <= field_area:
        raise AnalysisError(
            f"region_area must be within [0, field_area], got {region_area}"
        )
    if num_sensors < 0 or max_sensors < 0:
        raise AnalysisError("num_sensors and max_sensors must be non-negative")
    return float(stats.binom.cdf(max_sensors, num_sensors, region_area / field_area))


def required_truncation(
    num_sensors: int, region_area: float, field_area: float, target_accuracy: float
) -> int:
    """Smallest ``g`` with ``stage_accuracy(...) >= target_accuracy``.

    Raises:
        AnalysisError: if ``target_accuracy`` is not in ``(0, 1]``.
    """
    if not 0.0 < target_accuracy <= 1.0:
        raise AnalysisError(
            f"target_accuracy must be in (0, 1], got {target_accuracy}"
        )
    for g in range(num_sensors + 1):
        if stage_accuracy(num_sensors, region_area, field_area, g) >= target_accuracy:
            return g
    return num_sensors


def _per_stage_target(scenario: Scenario, target_accuracy: float) -> float:
    if not 0.0 < target_accuracy <= 1.0:
        raise AnalysisError(
            f"target_accuracy must be in (0, 1], got {target_accuracy}"
        )
    return target_accuracy ** (1.0 / scenario.window)


def required_head_truncation(scenario: Scenario, target_accuracy: float) -> int:
    """``gh`` needed for overall M-S accuracy ``target_accuracy`` (Fig. 8)."""
    return required_truncation(
        scenario.num_sensors,
        scenario.dr_area,
        scenario.field_area,
        _per_stage_target(scenario, target_accuracy),
    )


def required_body_truncation(scenario: Scenario, target_accuracy: float) -> int:
    """``g`` needed for overall M-S accuracy ``target_accuracy`` (Fig. 8)."""
    return required_truncation(
        scenario.num_sensors,
        scenario.nedr_body_area,
        scenario.field_area,
        _per_stage_target(scenario, target_accuracy),
    )


def required_s_approach_truncation(scenario: Scenario, target_accuracy: float) -> int:
    """``G`` needed for S-approach accuracy ``target_accuracy`` (Eq. 5, Fig. 8)."""
    regions = s_approach_regions(scenario)
    return required_truncation(
        scenario.num_sensors,
        float(regions.sum()),
        scenario.field_area,
        target_accuracy,
    )
