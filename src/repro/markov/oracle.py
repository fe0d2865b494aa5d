"""The literal Eq. 12 matrix product: an independent oracle for the M-S engine.

:class:`~repro.core.batched.BatchedMarkovSpatialAnalysis` evaluates Eq. 12
as stacked convolutions, with vectorised ``gammaln`` occupancy binomials
and the Body power taken by squaring.  This module evaluates the same
quantity the way the paper writes it down:

* each stage pmf comes from :func:`repro.core.report_dist.stage_report_pmf`
  (per-stage ``math.lgamma`` binomials);
* each pmf becomes a dense counting matrix
  (:func:`~repro.markov.counting.counting_transition_matrix`) on the
  ``M * Z + 1`` states of the Fig. 5 discussion;
* ``u = [1 0 ... 0]`` (Eq. 11) is multiplied through ``TH``, ``M - ms - 1``
  copies of ``TB`` and ``TT_1 .. TT_ms`` one period at a time.

It shares only the region decomposition with the engine, is
``O(M * Z^2)`` per point, and exists for tests and the validation
report — never for production paths.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.regions import body_subareas, head_subareas, tail_subareas
from repro.core.report_dist import stage_report_pmf
from repro.core.scenario import Scenario
from repro.markov.counting import counting_transition_matrix

__all__ = [
    "distribution_gap",
    "matrix_report_count_distribution",
    "ms_state_count",
    "ms_transition_matrices",
]


def ms_state_count(
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
) -> int:
    """``M * Z + 1`` with ``Z = (ms + 1) * gh`` (Fig. 5 discussion).

    With ``substeps = Q``, each stage can register up to ``Q`` times as
    many sensors, scaling ``Z`` accordingly.
    """
    gh = body_truncation if head_truncation is None else head_truncation
    z = (scenario.ms + 1) * max(gh, body_truncation) * substeps
    return scenario.window * z + 1


def ms_transition_matrices(
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
) -> List[np.ndarray]:
    """``[TH, TB, TT_1, ..., TT_ms]`` as dense counting matrices.

    With ``substeps = Q`` a stage matrix is the ``Q``-th power of its
    slice's matrix (slices of area ``area / Q``, Section 3.4.5).
    """
    gh = body_truncation if head_truncation is None else head_truncation
    states = ms_state_count(scenario, body_truncation, gh, substeps)

    def stage(subareas: np.ndarray, truncation: int) -> np.ndarray:
        pmf = stage_report_pmf(
            np.asarray(subareas, dtype=float) / substeps,
            scenario.field_area,
            scenario.num_sensors,
            scenario.detect_prob,
            truncation,
        )
        return np.linalg.matrix_power(
            counting_transition_matrix(pmf, states), substeps
        )

    matrices = [
        stage(head_subareas(scenario), gh),
        stage(body_subareas(scenario), body_truncation),
    ]
    for j in range(1, scenario.ms + 1):
        matrices.append(stage(tail_subareas(scenario, j), body_truncation))
    return matrices


def matrix_report_count_distribution(
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
) -> np.ndarray:
    """``u * TH * TB^(M-ms-1) * prod_j TT_j`` (Eq. 12), ``M * Z + 1`` entries."""
    head, body, *tails = ms_transition_matrices(
        scenario, body_truncation, head_truncation, substeps
    )
    distribution = np.zeros(head.shape[0])
    distribution[0] = 1.0  # u = [1 0 0 ... 0] (Eq. 11)
    distribution = distribution @ head
    for _ in range(scenario.body_steps):
        distribution = distribution @ body
    for tail in tails:
        distribution = distribution @ tail
    return distribution


def distribution_gap(
    distribution: np.ndarray,
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
) -> float:
    """Max abs deviation of an engine's Eq. 12 pmf from the matrix product.

    The engine's pmf is zero-padded to the ``M * Z + 1`` states, so
    mass it misses anywhere in the state space counts too.
    """
    matrix = matrix_report_count_distribution(
        scenario, body_truncation, head_truncation, substeps
    )
    engine = np.zeros_like(matrix)
    engine[: len(distribution)] = distribution
    return float(np.abs(engine - matrix).max())
