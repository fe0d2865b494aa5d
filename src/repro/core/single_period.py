"""The preliminary ``M = 1`` case (Section 3.1, Eqs. 1-2).

With a single sensing period there are no detection dependencies: each of
the ``N`` sensors is independently inside the target's detectable region
with probability ``dr_area / S`` and, if inside, detects with probability
``Pd``.  The report count is therefore ``Binomial(N, p_indi)`` with
``p_indi = Pd * dr_area / S``.
"""

from __future__ import annotations

import numpy as np

from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = [
    "report_count_pmf_single_period",
    "detection_probability_single_period",
]


def report_count_pmf_single_period(scenario: Scenario) -> np.ndarray:
    """Pmf of the report count in one sensing period (Eq. 1).

    Returns:
        Array of length ``N + 1``; entry ``m`` is ``P1[X = m]``.
    """
    from scipy import stats

    counts = np.arange(scenario.num_sensors + 1)
    return stats.binom.pmf(counts, scenario.num_sensors, scenario.p_indi)


def detection_probability_single_period(scenario: Scenario) -> float:
    """``P1[X >= k]`` — detection probability when ``M = 1`` (Eq. 2).

    The scenario's ``threshold`` is used as ``k``; ``window`` must be 1 so
    that calling this on a multi-period scenario is an explicit mistake.

    Raises:
        AnalysisError: if ``scenario.window != 1``.
    """
    if scenario.window != 1:
        raise AnalysisError(
            f"single-period analysis requires window == 1, got {scenario.window}; "
            "use MarkovSpatialAnalysis for multi-period windows"
        )
    from scipy import stats

    # P1[X >= k] = 1 - sum_{i<k} P1[X = i] = survival function at k-1.
    return float(
        stats.binom.sf(scenario.threshold - 1, scenario.num_sensors, scenario.p_indi)
    )
