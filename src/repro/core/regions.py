"""Region decomposition: Eqs. (6), (8), (10) and the S-approach ``Region(i)``.

All functions return arrays indexed directly by coverage count ``i``:
``areas[i]`` is the area of the subregion whose sensors cover the target for
exactly ``i`` periods, with ``areas[0] == 0`` as padding.  Arrays have
length ``ms + 2`` so valid indices run ``1 .. ms + 1``.

``AreaH`` uses :func:`area_h_closed_form`, the lens-difference form
``AreaH(i) = A_lens((i-2)L) - A_lens((i-1)L)`` derived in DESIGN.md; it is
simpler and numerically better behaved than the paper's Eq. (6) running-sum
recurrence, which the tests keep verbatim as an oracle
(``tests/region_oracles.py::area_h_literal``).

The scenario-level helpers (:func:`head_subareas` .. :func:`window_regions`)
memoize their results in :func:`repro.cache.analysis_cache`, keyed by the
geometry fields only (``Rs`` and ``V * t``; plus the window length where it
matters) — sweeps over ``N``, ``Pd`` or ``k`` reuse one decomposition.
Cached arrays are read-only; ``.copy()`` before mutating.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache import cached_array, region_geometry_key
from repro.core.scenario import Scenario
from repro.errors import AnalysisError, GeometryError
from repro.geometry.circle_math import circle_lens_area

__all__ = [
    "area_h_closed_form",
    "area_b",
    "area_t",
    "s_approach_regions",
    "window_regions",
    "head_subareas",
    "body_subareas",
    "tail_subareas",
]


def _check_geometry(sensing_range: float, step_length: float, ms: int) -> None:
    if sensing_range <= 0:
        raise GeometryError(f"sensing_range must be positive, got {sensing_range}")
    if step_length <= 0:
        raise GeometryError(f"step_length must be positive, got {step_length}")
    expected_ms = math.ceil(2.0 * sensing_range / step_length)
    if ms != expected_ms:
        raise GeometryError(
            f"ms={ms} is inconsistent with ceil(2*Rs/L)={expected_ms} "
            f"for Rs={sensing_range}, L={step_length}"
        )


def area_h_closed_form(
    sensing_range: float, step_length: float, ms: int
) -> np.ndarray:
    """``AreaH(i)`` via lens-area differences.

    ``AreaH(1) = 2*Rs*L``; for ``1 < i <= ms``,
    ``AreaH(i) = A_lens((i-2)L) - A_lens((i-1)L)``; and
    ``AreaH(ms+1) = A_lens((ms-1)L)``, where ``A_lens(d)`` is the
    intersection area of two radius-``Rs`` circles ``d`` apart.

    Returns:
        Array of length ``ms + 2``; ``areas[i]`` is ``AreaH(i)``,
        ``areas[0] == 0``.
    """
    _check_geometry(sensing_range, step_length, ms)
    areas = np.zeros(ms + 2)
    areas[1] = 2.0 * sensing_range * step_length
    for i in range(2, ms + 1):
        areas[i] = circle_lens_area(
            (i - 2) * step_length, sensing_range
        ) - circle_lens_area((i - 1) * step_length, sensing_range)
    areas[ms + 1] = circle_lens_area((ms - 1) * step_length, sensing_range)
    # Lens-area differences can leave ~1e-6-scale negative residues when a
    # circle pair is within float epsilon of tangency; areas are
    # non-negative by definition.
    return np.clip(areas, 0.0, None)


def area_b(head_areas: np.ndarray) -> np.ndarray:
    """``AreaB(i)`` from ``AreaH(i)`` (Eq. 8).

    ``AreaB(i) = AreaH(i) - AreaH(i+1)`` for ``i <= ms`` and
    ``AreaB(ms+1) = AreaH(ms+1)``.

    Args:
        head_areas: output of an ``area_h_*`` function (length ``ms + 2``).

    Returns:
        Array of the same shape and indexing convention.
    """
    head_areas = np.asarray(head_areas, dtype=float)
    ms = head_areas.size - 2
    if ms < 1:
        raise GeometryError(
            f"head_areas must have length >= 3 (ms >= 1), got {head_areas.size}"
        )
    body = np.zeros_like(head_areas)
    body[1 : ms + 1] = head_areas[1 : ms + 1] - head_areas[2 : ms + 2]
    body[ms + 1] = head_areas[ms + 1]
    return body


def area_t(body_areas: np.ndarray, tail_index: int) -> np.ndarray:
    """``AreaT_j(i)`` from ``AreaB(i)`` (Eq. 10).

    In Tail period ``T_j`` (the ``j``-th period from the end region, period
    ``M - ms + j``), only ``ms + 1 - j`` future periods remain, so every
    sensor that would cover the target longer is merged into the top class:
    ``AreaT_j(i) = AreaB(i)`` for ``i <= ms - j`` and
    ``AreaT_j(ms+1-j) = sum_{m >= ms+1-j} AreaB(m)``.

    Args:
        body_areas: output of :func:`area_b` (length ``ms + 2``).
        tail_index: ``j`` in ``1 .. ms``.

    Returns:
        Array of length ``ms + 2``; entries above index ``ms + 1 - j`` are
        zero.
    """
    body_areas = np.asarray(body_areas, dtype=float)
    ms = body_areas.size - 2
    if not 1 <= tail_index <= ms:
        raise GeometryError(f"tail_index must be in 1..{ms}, got {tail_index}")
    tail = np.zeros_like(body_areas)
    top = ms + 1 - tail_index
    tail[1:top] = body_areas[1:top]
    tail[top] = body_areas[top : ms + 2].sum()
    return tail


def head_subareas(scenario: Scenario) -> np.ndarray:
    """``AreaH(i)`` for a scenario (closed form; cached, read-only).

    Memoized on :func:`repro.cache.region_geometry_key` — scenarios that
    differ only in ``N``, ``Pd``, ``M``, ``k`` or field size share one
    entry.
    """
    return cached_array(
        ("area_h", region_geometry_key(scenario)),
        lambda: area_h_closed_form(
            scenario.sensing_range, scenario.step_length, scenario.ms
        ),
    )


def body_subareas(scenario: Scenario) -> np.ndarray:
    """``AreaB(i)`` for a scenario (cached, read-only)."""
    return cached_array(
        ("area_b", region_geometry_key(scenario)),
        lambda: area_b(head_subareas(scenario)),
    )


def tail_subareas(scenario: Scenario, tail_index: int) -> np.ndarray:
    """``AreaT_j(i)`` for a scenario (cached, read-only)."""
    return cached_array(
        ("area_t", region_geometry_key(scenario), int(tail_index)),
        lambda: area_t(body_subareas(scenario), tail_index),
    )


def s_approach_regions(scenario: Scenario) -> np.ndarray:
    """``Region(i)`` of the S-approach (Section 3.3).

    The ARegion decomposes into the Head NEDR, ``M - ms - 1`` Body NEDRs and
    ``ms`` Tail NEDRs, each already partitioned by coverage count, so::

        Region(i) = AreaH(i) + (M - ms - 1) * AreaB(i) + sum_j AreaT_j(i)

    Only valid in the general case ``M > ms`` the paper analyses
    (``sum_i Region(i)`` then equals the ARegion area).

    Raises:
        AnalysisError: if ``M <= ms`` (use :func:`window_regions`, which
            handles any window length).
    """
    if not scenario.has_body_stage:
        raise AnalysisError(
            f"S-approach region formulas require M > ms "
            f"(M={scenario.window}, ms={scenario.ms}); use "
            "window_regions(scenario, scenario.window)"
        )

    def compute() -> np.ndarray:
        head = head_subareas(scenario)
        body = area_b(head)
        regions = head + scenario.body_steps * body
        for j in range(1, scenario.ms + 1):
            regions += area_t(body, j)
        return regions

    return cached_array(
        ("s_regions", region_geometry_key(scenario), scenario.window), compute
    )


def _truncate_coverage(areas: np.ndarray, max_coverage: int) -> np.ndarray:
    """Merge coverage classes above ``max_coverage`` into that class."""
    truncated = np.zeros_like(areas)
    top = min(max_coverage, areas.size - 1)
    truncated[1:top] = areas[1:top]
    truncated[top] = areas[top:].sum()
    return truncated


def window_regions(scenario: Scenario, periods: int) -> np.ndarray:
    """Coverage-count region areas for the first ``periods`` periods.

    Generalises :func:`s_approach_regions` to *any* window length,
    including the short windows (``periods <= ms``) the paper's
    decomposition excludes: a sensor in the NEDR of period ``l`` whose
    infinite-track coverage class is ``i`` covers the target for
    ``min(i, periods - l + 1)`` of the first ``periods`` periods, so each
    NEDR's subareas are the Head/Body areas with the top classes merged.
    For ``periods == M > ms`` this reduces exactly to
    :func:`s_approach_regions`.

    Args:
        scenario: the model parameters (``scenario.window`` only bounds
            ``periods``; the geometry comes from ``Rs`` and ``V * t``).
        periods: prefix length, ``1 <= periods <= scenario.window``.

    Returns:
        Array of length ``ms + 2`` indexed by coverage count.
    """
    if not 1 <= periods <= scenario.window:
        raise AnalysisError(
            f"periods must be in 1..{scenario.window}, got {periods}"
        )

    def compute() -> np.ndarray:
        head = head_subareas(scenario)
        body = area_b(head)
        regions = _truncate_coverage(head, periods)
        for start_period in range(2, periods + 1):
            remaining = periods - start_period + 1
            regions += _truncate_coverage(body, remaining)
        return regions

    return cached_array(
        ("w_regions", region_geometry_key(scenario), int(periods)), compute
    )
