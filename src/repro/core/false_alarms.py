"""System-level false alarms of the k-of-M rule (Section 6 future work).

The paper analyses detection probability *without* false alarms and defers
"the exact lower bound of k based on a specified false alarm model" to
future work.  This module implements that model for the simplest false
alarm process the paper's abstraction admits:

* each sensor independently emits a false report in each sensing period
  with probability ``pf`` (environmental noise, Section 1);
* with no track filtering, a window raises a system-level false alarm when
  it contains at least ``k`` reports — the count over one window is
  ``Binomial(N * M, pf)``.

From that we derive the minimum ``k`` whose per-window false alarm
probability stays below a budget, and the expected system false alarm rate
per unit time.  The per-window probability is exact; the rate uses the
standard union-bound/renewal approximation over the sliding windows
(documented below) — suitable for the very rare events the paper targets.
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError, require_count

__all__ = [
    "window_false_alarm_probability",
    "minimum_safe_threshold",
    "false_alarm_rate_per_period",
    "expected_hours_between_false_alarms",
]


def _validate(num_sensors: int, window: int, false_alarm_prob: float) -> None:
    require_count("num_sensors", num_sensors, AnalysisError)
    require_count("window", window, AnalysisError)
    if num_sensors < 1:
        raise AnalysisError(f"num_sensors must be >= 1, got {num_sensors}")
    if window < 1:
        raise AnalysisError(f"window must be >= 1, got {window}")
    if not 0.0 <= false_alarm_prob < 1.0:
        raise AnalysisError(
            f"false_alarm_prob must be in [0, 1), got {false_alarm_prob}"
        )


def window_false_alarm_probability(
    num_sensors: int, window: int, false_alarm_prob: float, threshold: int
) -> float:
    """P(a fixed M-period window accumulates >= k false reports).

    Exact: the false-report count over ``N`` sensors and ``M`` periods is
    ``Binomial(N * M, pf)``.

    Args:
        num_sensors: ``N``.
        window: ``M``.
        false_alarm_prob: per-sensor per-period false report probability.
        threshold: ``k``.

    Raises:
        AnalysisError: if a count is not an integer or is out of range.
    """
    from scipy import stats

    _validate(num_sensors, window, false_alarm_prob)
    require_count("threshold", threshold, AnalysisError)
    if threshold < 1:
        raise AnalysisError(f"threshold must be >= 1, got {threshold}")
    return float(stats.binom.sf(threshold - 1, num_sensors * window, false_alarm_prob))


def minimum_safe_threshold(
    num_sensors: int,
    window: int,
    false_alarm_prob: float,
    max_window_probability: float,
) -> int:
    """Smallest ``k`` with per-window false alarm probability below budget.

    This is the "exact lower bound of k" of Section 6 under the Bernoulli
    false alarm model: any smaller ``k`` admits a too-likely sequence of
    false alarms.

    Raises:
        AnalysisError: if the budget is not in ``(0, 1)``.
    """
    _validate(num_sensors, window, false_alarm_prob)
    if not 0.0 < max_window_probability < 1.0:
        raise AnalysisError(
            f"max_window_probability must be in (0, 1), got {max_window_probability}"
        )
    total_trials = num_sensors * window
    for k in range(1, total_trials + 2):
        if (
            window_false_alarm_probability(num_sensors, window, false_alarm_prob, k)
            <= max_window_probability
        ):
            return k
    raise AnalysisError(
        "no threshold satisfies the budget"
    )  # pragma: no cover - sf(total) == 0 always satisfies


def false_alarm_rate_per_period(
    num_sensors: int, window: int, false_alarm_prob: float, threshold: int
) -> float:
    """Approximate rate of *new* system false alarms per sensing period.

    A new system false alarm at period ``p`` means the window ending at
    ``p`` crosses the threshold.  Successive windows overlap heavily, so we
    use the renewal approximation ``rate <= P(window trips)`` per period
    (tight for the rare-event regime ``P << 1`` the rule is tuned for).
    """
    return window_false_alarm_probability(
        num_sensors, window, false_alarm_prob, threshold
    )


def expected_hours_between_false_alarms(
    num_sensors: int,
    window: int,
    false_alarm_prob: float,
    threshold: int,
    period_seconds: float,
) -> float:
    """Mean time between system false alarms, in hours.

    ``inf`` when the per-window probability underflows to zero.

    Raises:
        AnalysisError: if ``period_seconds`` is not positive.
    """
    if period_seconds <= 0:
        raise AnalysisError(f"period_seconds must be positive, got {period_seconds}")
    rate = false_alarm_rate_per_period(
        num_sensors, window, false_alarm_prob, threshold
    )
    if rate <= 0.0:
        return math.inf
    return period_seconds / rate / 3600.0
