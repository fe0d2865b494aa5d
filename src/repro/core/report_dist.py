"""Report-count distributions over region decompositions.

Given a region (the ARegion, or one NEDR) partitioned into subareas by
coverage count, these functions compute the probability mass function of the
number of detection reports generated by sensors inside the region:

* a sensor in a subarea with coverage count ``i`` generates
  ``Binomial(i, Pd)`` reports;
* the number of sensors inside the region is ``Binomial(N, area / S)``;
* sensor positions are i.i.d. uniform, so given ``n`` sensors inside, their
  report counts are i.i.d. with pmf :func:`conditional_report_pmf`.

Both the paper's literal Algorithm 1 enumeration
(:func:`stage_report_pmf_naive`, exponential in the sensor-count truncation
``g``) and the equivalent i.i.d.-convolution computation
(:func:`stage_report_pmf`, polynomial) are provided; tests assert they
agree.  :func:`exact_report_pmf` removes the truncation altogether by
convolving the *whole-field* per-sensor pmf ``N`` times — exact under the
same assumptions, used as the reference oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from repro.cache import cached_array
from repro.errors import DistributionError

__all__ = [
    "binomial_pmf",
    "conditional_report_pmf",
    "occupancy_pmf",
    "stage_report_pmf",
    "stage_report_pmf_naive",
    "per_sensor_field_pmf",
    "exact_report_pmf",
    "convolution_power",
]


def binomial_pmf(trials: int, success_prob: float) -> np.ndarray:
    """Pmf of ``Binomial(trials, success_prob)`` as an array of length ``trials + 1``."""
    if trials < 0:
        raise DistributionError(f"trials must be non-negative, got {trials}")
    if not 0.0 <= success_prob <= 1.0:
        raise DistributionError(
            f"success_prob must be in [0, 1], got {success_prob}"
        )
    counts = np.arange(trials + 1)
    # Exact evaluation via log-gamma is stable for any trials.
    with np.errstate(divide="ignore"):
        log_comb = (
            math.lgamma(trials + 1)
            - np.array([math.lgamma(c + 1) + math.lgamma(trials - c + 1) for c in counts])
        )
        log_p = np.where(counts > 0, counts * np.log(max(success_prob, 1e-300)), 0.0)
        log_q = np.where(
            trials - counts > 0,
            (trials - counts) * np.log(max(1.0 - success_prob, 1e-300)),
            0.0,
        )
    pmf = np.exp(log_comb + log_p + log_q)
    if success_prob == 0.0:
        pmf = np.zeros(trials + 1)
        pmf[0] = 1.0
    elif success_prob == 1.0:
        pmf = np.zeros(trials + 1)
        pmf[trials] = 1.0
    return pmf


def _validate_subareas(subareas: Sequence[float]) -> np.ndarray:
    areas = np.asarray(subareas, dtype=float)
    if areas.ndim != 1 or areas.size < 2:
        raise DistributionError(
            f"subareas must be a 1-D array of length >= 2 indexed by coverage "
            f"count, got shape {areas.shape}"
        )
    if (areas < -1e-12).any():
        raise DistributionError("subareas must be non-negative")
    if areas[0] not in (0, 0.0):
        raise DistributionError("subareas[0] is padding and must be zero")
    if areas.sum() <= 0:
        raise DistributionError("subareas must have positive total area")
    return np.clip(areas, 0.0, None)


def conditional_report_pmf(
    subareas: Sequence[float], detect_prob: float
) -> np.ndarray:
    """Report pmf of one sensor *conditioned on being inside the region*.

    Args:
        subareas: array indexed by coverage count ``i`` (``subareas[0]`` is
            zero padding); ``subareas[i]`` is the area where a sensor covers
            the target for exactly ``i`` periods.
        detect_prob: per-period detection probability ``Pd``.

    Returns:
        Pmf ``q`` with ``q[m] = sum_i (subareas[i]/total) * Binom(m; i, Pd)``,
        length ``i_max + 1``.

    The ``Binomial(i, Pd)`` rows are memoised (read-only) in the
    process-wide analysis cache under ``("binomial_pmf", i, Pd)``: sweeps
    mix the same rows at every point.  The mix itself stays a
    row-by-row accumulation, so the result is bitwise the unmemoised one.
    """
    areas = _validate_subareas(subareas)
    total = areas.sum()
    max_coverage = int(np.flatnonzero(areas)[-1])
    pmf = np.zeros(max_coverage + 1)
    for coverage in range(1, max_coverage + 1):
        weight = areas[coverage] / total
        if weight == 0.0:
            continue
        row = cached_array(
            ("binomial_pmf", coverage, detect_prob),
            lambda: binomial_pmf(coverage, detect_prob),
        )
        pmf[: coverage + 1] += weight * row
    return pmf


def occupancy_pmf(
    region_area: float, field_area: float, num_sensors: int, max_sensors: int
) -> np.ndarray:
    """Truncated ``Binomial(N, area/S)`` pmf of the sensor count in a region.

    Returns:
        Array of length ``max_sensors + 1``; its sum is the stage accuracy
        ``xi`` (Eqs. 7 and 9 of the paper).
    """
    if field_area <= 0:
        raise DistributionError(f"field_area must be positive, got {field_area}")
    if not 0 <= region_area <= field_area:
        raise DistributionError(
            f"region_area must be in [0, field_area], got {region_area}"
        )
    if num_sensors < 0:
        raise DistributionError(f"num_sensors must be non-negative, got {num_sensors}")
    if max_sensors < 0:
        raise DistributionError(f"max_sensors must be non-negative, got {max_sensors}")
    full = binomial_pmf(num_sensors, region_area / field_area)
    limit = min(max_sensors, num_sensors)
    out = np.zeros(max_sensors + 1)
    out[: limit + 1] = full[: limit + 1]
    return out


def convolution_power(pmf: Sequence[float], power: int) -> np.ndarray:
    """``power``-fold convolution of a pmf with itself (binary exponentiation).

    ``power == 0`` returns the unit pmf ``[1.0]``.
    """
    if power < 0:
        raise DistributionError(f"power must be non-negative, got {power}")
    base = np.asarray(pmf, dtype=float)
    if base.ndim != 1 or base.size == 0:
        raise DistributionError("pmf must be a non-empty 1-D array")
    result = np.array([1.0])
    while power:
        if power & 1:
            result = np.convolve(result, base)
        power >>= 1
        if power:
            base = np.convolve(base, base)
    return result


def stage_report_pmf(
    subareas: Sequence[float],
    field_area: float,
    num_sensors: int,
    detect_prob: float,
    max_sensors: int,
) -> np.ndarray:
    """Truncated pmf of the report count generated from one region.

    ``p[m] = sum_{n=0}^{g} Binom(n; N, area/S) * q^{*n}[m]`` where ``q`` is
    :func:`conditional_report_pmf` and ``g = max_sensors``.  This is the
    same quantity Algorithm 1 of the paper computes (``p_{s:m}``,
    ``p_{h:m}``, ``p_{b:m}``, ``p_{tj:m}`` depending on which subareas are
    passed), computed by exploiting that sensors are i.i.d.

    The result is substochastic: its total mass is the stage accuracy
    ``xi`` (the probability of at most ``g`` sensors in the region).

    Returns:
        Array of length ``max_sensors * i_max + 1``.
    """
    areas = _validate_subareas(subareas)
    per_sensor = conditional_report_pmf(areas, detect_prob)
    occupancy = occupancy_pmf(float(areas.sum()), field_area, num_sensors, max_sensors)
    max_coverage = per_sensor.size - 1
    out = np.zeros(max_sensors * max_coverage + 1)
    n_fold = np.array([1.0])
    for count, mass in enumerate(occupancy):
        if count > 0:
            n_fold = np.convolve(n_fold, per_sensor)
        if mass > 0.0:
            out[: n_fold.size] += mass * n_fold
    return out


def stage_report_pmf_naive(
    subareas: Sequence[float],
    field_area: float,
    num_sensors: int,
    detect_prob: float,
    max_sensors: int,
) -> np.ndarray:
    """Literal Algorithm 1: enumerate ordered subarea assignments.

    For every sensor count ``n <= g`` and every ordered tuple
    ``(R_1, ..., R_n)`` of subarea indices, accumulate
    ``p_S{(n)(R_1..R_n)} * conv(Binom(R_1, Pd), ..., Binom(R_n, Pd))``.
    Runs in ``O((i_max)^g)`` tuples — this is the cost the M-S-approach was
    invented to avoid, kept for fidelity tests and the runtime benchmark.
    """
    areas = _validate_subareas(subareas)
    if field_area <= 0:
        raise DistributionError(f"field_area must be positive, got {field_area}")
    total_area = areas.sum()
    max_coverage = int(np.flatnonzero(areas)[-1])
    region_indices = range(1, max_coverage + 1)
    region_binomials = {
        i: binomial_pmf(i, detect_prob) for i in region_indices
    }
    out = np.zeros(max_sensors * max_coverage + 1)
    for count in range(0, min(max_sensors, num_sensors) + 1):
        # (N choose n) * (1 - area/S)^(N - n), shared by all tuples of size n.
        prefix = math.comb(num_sensors, count) * (
            1.0 - total_area / field_area
        ) ** (num_sensors - count)
        for assignment in itertools.product(region_indices, repeat=count):
            placement = prefix
            reports = np.array([1.0])
            for region in assignment:
                placement *= areas[region] / field_area
                reports = np.convolve(reports, region_binomials[region])
            if placement > 0.0:
                out[: reports.size] += placement * reports
    return out


def per_sensor_field_pmf(
    region_areas: Sequence[float], field_area: float, detect_prob: float
) -> np.ndarray:
    """Report pmf of one sensor placed uniformly in the *whole field*.

    ``r[0]`` includes the probability of landing outside the region
    entirely; ``r[m] = sum_i (Region(i)/S) * Binom(m; i, Pd)`` otherwise.
    """
    areas = _validate_subareas(region_areas)
    if field_area <= 0:
        raise DistributionError(f"field_area must be positive, got {field_area}")
    total = areas.sum()
    if total > field_area:
        raise DistributionError(
            f"region areas sum to {total}, larger than the field {field_area}"
        )
    conditional = conditional_report_pmf(areas, detect_prob)
    pmf = (total / field_area) * conditional
    pmf[0] += 1.0 - total / field_area
    return pmf


def exact_report_pmf(
    region_areas: Sequence[float],
    field_area: float,
    num_sensors: int,
    detect_prob: float,
) -> np.ndarray:
    """Exact (untruncated) pmf of the total report count from ``N`` sensors.

    The ``N``-fold convolution of :func:`per_sensor_field_pmf`.  Exact under
    the model's assumptions (uniform i.i.d. sensors, straight track,
    coverage counts given by the region decomposition); no sensor-count
    truncation, hence no normalisation step.
    """
    if num_sensors < 0:
        raise DistributionError(f"num_sensors must be non-negative, got {num_sensors}")
    per_sensor = per_sensor_field_pmf(region_areas, field_area, detect_prob)
    return convolution_power(per_sensor, num_sensors)
