"""Estimation statistics for Monte Carlo detection probabilities."""

from __future__ import annotations

import math
from typing import Tuple

from scipy.special import ndtr, ndtri

from repro.errors import SimulationError, require_count

__all__ = ["wilson_interval", "standard_error", "two_proportion_z_test"]


def _validate_counts(successes: int, trials: int) -> None:
    require_count("successes", successes, SimulationError)
    require_count("trials", trials, SimulationError)
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise SimulationError(
            f"successes must be in [0, trials], got {successes}/{trials}"
        )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal ("Wald") interval because it behaves at the
    extremes (detection probabilities near 1, exactly where the paper's
    curves saturate).

    Args:
        successes: number of detected trials.
        trials: total trials.
        confidence: coverage level in ``(0, 1)``.

    Returns:
        ``(low, high)`` bounds within ``[0, 1]``.
    """
    _validate_counts(successes, trials)
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must be in (0, 1), got {confidence}")
    # ndtri is the standard normal quantile (scipy.stats.norm.ppf).
    z = float(ndtri(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def standard_error(successes: int, trials: int) -> float:
    """Standard error of the proportion estimate ``successes / trials``."""
    _validate_counts(successes, trials)
    p_hat = successes / trials
    return math.sqrt(p_hat * (1.0 - p_hat) / trials)


def two_proportion_z_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> Tuple[float, float]:
    """Pooled two-proportion z-test: are two detection rates different?

    The test the ablation experiments need when comparing two simulation
    arms (e.g. torus vs clip boundary modes): under the null hypothesis
    that both arms share one detection probability, the standardised
    difference is approximately normal.

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
