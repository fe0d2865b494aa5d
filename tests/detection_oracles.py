"""Reference checks the tests run against the detection pipeline.

Neither runs on a user path:

* :class:`InstantaneousDetector` — single-period thresholding, the
  ``M = 1`` baseline the paper argues against (Section 3.1).  A
  :class:`repro.detection.group.GroupDetector` with ``window = 1`` must
  fire exactly when it does.
* :func:`two_proportion_z_test` — the pooled two-proportion z-test; two
  seeds of one :class:`repro.simulation.runner.MonteCarloSimulator`
  scenario must pass it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from scipy.special import ndtr

from repro.detection.reports import DetectionReport
from repro.errors import SimulationError
from repro.simulation.stats import _validate_counts


class InstantaneousDetector:
    """Single-period thresholding (``M = 1``).

    Args:
        threshold: reports required within one period (``k``; usually 1 in
            sparse deployments).

    Raises:
        SimulationError: if ``threshold < 1``.
    """

    def __init__(self, threshold: int = 1):
        if threshold < 1:
            raise SimulationError(f"threshold must be >= 1, got {threshold}")
        self._threshold = threshold
        self._detections: List[int] = []
        self._last_period = 0

    @property
    def threshold(self) -> int:
        """``k``."""
        return self._threshold

    @property
    def detection_periods(self) -> List[int]:
        """Periods at which the decision fired (copies)."""
        return list(self._detections)

    def observe(self, period: int, reports: Iterable[DetectionReport]) -> bool:
        """Feed one period's reports; return the decision for that period."""
        if period <= self._last_period:
            raise SimulationError(
                f"periods must be strictly increasing: got {period} after "
                f"{self._last_period}"
            )
        self._last_period = period
        fired = len(list(reports)) >= self._threshold
        if fired:
            self._detections.append(period)
        return fired

    def reset(self) -> None:
        """Forget all state."""
        self._detections.clear()
        self._last_period = 0


def two_proportion_z_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> Tuple[float, float]:
    """Pooled two-proportion z-test: are two detection rates different?

    Under the null hypothesis that both simulation arms share one
    detection probability, the standardised difference is approximately
    normal.

    Args:
        successes_a: detections in arm A.
        trials_a: trials in arm A.
        successes_b: detections in arm B.
        trials_b: trials in arm B.

    Returns:
        ``(z, p_value)`` — the z statistic (positive when arm A's rate is
        higher) and the two-sided p-value.  ``(0.0, 1.0)`` when the pooled
        rate is degenerate (all successes or all failures), where the
        arms are trivially indistinguishable.
    """
    _validate_counts(successes_a, trials_a)
    _validate_counts(successes_b, trials_b)
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance == 0.0:
        return (0.0, 1.0)
    z = (p_a - p_b) / math.sqrt(variance)
    # ndtr(-z) is the standard normal survival function (norm.sf(z)).
    p_value = 2.0 * float(ndtr(-abs(z)))
    return (z, min(1.0, p_value))
