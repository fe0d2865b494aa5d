"""Estimation statistics for Monte Carlo detection probabilities."""

from __future__ import annotations

import math
from typing import Tuple

from scipy.special import ndtri

from repro.errors import SimulationError, require_count

__all__ = ["wilson_interval", "standard_error"]


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
