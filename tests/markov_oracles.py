"""Reference models the tests check the Markov engine against.

None of this runs on a user path; each piece is an oracle some kept test
points at user-path code:

* :class:`MarkovChain` — a general finite DTMC with absorption analysis.
  The counting-chain cross-checks run it over
  :func:`repro.markov.counting.counting_transition_matrix` (which
  ``repro validate`` uses) against plain convolutions.
* :func:`propagate_counts` / :func:`merge_tail` — the convolution view
  of one counting-chain step and the paper's merged ``>= k`` state.
* :func:`matrix_detection_probability` — Eq. 13 read off the literal
  Eq. 12 matrix product of :mod:`repro.markov.oracle`, for checks of
  the batched engine's detection probability.
* :func:`report_count_pmf_single_period` /
  :func:`detection_probability_single_period` — the ``M = 1`` binomial
  closed form of Section 3.1 (Eqs. 1-2), checked against
  :class:`repro.core.exact_spatial.ExactSpatialAnalysis`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import stats

from repro.core.scenario import Scenario
from repro.errors import AnalysisError, DistributionError
from repro.markov.counting import validate_pmf
from repro.markov.oracle import matrix_report_count_distribution

_TOLERANCE = 1e-9


class MarkovChainError(ValueError):
    """A Markov chain was built from invalid ingredients."""


class MarkovChain:
    """A finite DTMC defined by a (sub)stochastic transition matrix.

    Args:
        transition_matrix: ``(n, n)`` array; entry ``(i, j)`` is the
            probability of moving from state ``i`` to state ``j`` in one
            step.
        substochastic: when ``True``, rows may sum to less than 1 (leaked
            mass is simply lost); when ``False`` (default), every row must
            sum to 1 within tolerance.

    Raises:
        MarkovChainError: if the matrix is not square, has negative entries,
            or violates the row-sum requirement.
    """

    def __init__(self, transition_matrix: np.ndarray, substochastic: bool = False):
        matrix = np.asarray(transition_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MarkovChainError(
                f"transition matrix must be square, got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0:
            raise MarkovChainError("transition matrix must have at least one state")
        if (matrix < -_TOLERANCE).any():
            raise MarkovChainError("transition matrix has negative entries")
        row_sums = matrix.sum(axis=1)
        if (row_sums > 1.0 + _TOLERANCE).any():
            raise MarkovChainError("transition matrix rows sum to more than 1")
        if not substochastic and (np.abs(row_sums - 1.0) > _TOLERANCE).any():
            raise MarkovChainError(
                "transition matrix rows must sum to 1 (pass substochastic=True "
                "to allow leaked mass)"
            )
        self._matrix = np.clip(matrix, 0.0, None)
        self._substochastic = substochastic

    @property
    def num_states(self) -> int:
        """Number of states."""
        return self._matrix.shape[0]

    @property
    def transition_matrix(self) -> np.ndarray:
        """A copy of the transition matrix."""
        return self._matrix.copy()

    @property
    def is_substochastic(self) -> bool:
        """Whether rows are allowed to sum to less than 1."""
        return self._substochastic

    def validate_distribution(self, distribution: Sequence[float]) -> np.ndarray:
        """Check and normalise the dtype of a state distribution vector."""
        dist = np.asarray(distribution, dtype=float)
        if dist.shape != (self.num_states,):
            raise MarkovChainError(
                f"distribution must have shape ({self.num_states},), got {dist.shape}"
            )
        if (dist < -_TOLERANCE).any():
            raise MarkovChainError("distribution has negative entries")
        if dist.sum() > 1.0 + _TOLERANCE:
            raise MarkovChainError("distribution sums to more than 1")
        return np.clip(dist, 0.0, None)

    def step(self, distribution: Sequence[float]) -> np.ndarray:
        """Propagate a state distribution by one step: ``d @ T``."""
        dist = self.validate_distribution(distribution)
        return dist @ self._matrix

    def run(self, distribution: Sequence[float], steps: int) -> np.ndarray:
        """Propagate a state distribution by ``steps`` steps.

        Uses repeated matrix squaring on the transition matrix when
        ``steps`` is large relative to the state count, plain iteration
        otherwise.
        """
        if steps < 0:
            raise MarkovChainError(f"steps must be non-negative, got {steps}")
        dist = self.validate_distribution(distribution)
        for _ in range(steps):
            dist = dist @ self._matrix
        return dist

    def power(self, steps: int) -> np.ndarray:
        """The ``steps``-step transition matrix ``T**steps``."""
        if steps < 0:
            raise MarkovChainError(f"steps must be non-negative, got {steps}")
        return np.linalg.matrix_power(self._matrix, steps)

    def absorbing_states(self) -> np.ndarray:
        """Indices of absorbing states (``T[i, i] == 1``)."""
        diag = np.diag(self._matrix)
        return np.flatnonzero(np.isclose(diag, 1.0, atol=_TOLERANCE))

    def expected_steps_to_absorption(
        self, absorbing: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Expected number of steps to reach an absorbing state.

        Args:
            absorbing: indices of the absorbing states; detected from the
                diagonal when omitted.

        Returns:
            Array of expected absorption times for every *transient* state,
            indexed by transient-state order (states not listed as
            absorbing).

        Raises:
            MarkovChainError: if there are no absorbing states, the chain is
                substochastic, or the fundamental matrix is singular (some
                transient state cannot reach absorption).
        """
        if self._substochastic:
            raise MarkovChainError(
                "absorption analysis requires a proper stochastic matrix"
            )
        if absorbing is None:
            absorbing_idx = self.absorbing_states()
        else:
            absorbing_idx = np.asarray(absorbing, dtype=int)
        if absorbing_idx.size == 0:
            raise MarkovChainError("chain has no absorbing states")
        transient = np.setdiff1d(np.arange(self.num_states), absorbing_idx)
        if transient.size == 0:
            return np.zeros(0)
        q = self._matrix[np.ix_(transient, transient)]
        identity = np.eye(transient.size)
        try:
            times = np.linalg.solve(identity - q, np.ones(transient.size))
        except np.linalg.LinAlgError as exc:
            raise MarkovChainError(
                "fundamental matrix is singular: some transient state never reaches "
                "an absorbing state"
            ) from exc
        return times


def propagate_counts(
    distribution: Sequence[float], step_pmf: Sequence[float]
) -> np.ndarray:
    """Convolution view of one counting-chain step.

    Equivalent to ``distribution @ counting_transition_matrix(...)`` with a
    state space large enough that nothing overflows; the result grows by
    ``len(step_pmf) - 1`` entries.
    """
    dist = np.asarray(distribution, dtype=float)
    pmf = validate_pmf(step_pmf, substochastic=True)
    if dist.ndim != 1 or dist.size == 0:
        raise DistributionError("distribution must be a non-empty 1-D array")
    return np.convolve(dist, pmf)


def merge_tail(distribution: Sequence[float], threshold: int) -> np.ndarray:
    """Merge all states ``>= threshold`` into a single final state.

    The paper notes (Fig. 5 discussion) that when only ``P[X >= k]``
    matters, states ``k .. MZ`` can be merged.  The returned vector has
    ``threshold + 1`` entries; the last one carries the merged mass.

    Raises:
        DistributionError: if ``threshold`` is negative.
    """
    dist = np.asarray(distribution, dtype=float)
    if threshold < 0:
        raise DistributionError(f"threshold must be non-negative, got {threshold}")
    if dist.size <= threshold:
        out = np.zeros(threshold + 1)
        out[: dist.size] = dist
        return out
    out = np.empty(threshold + 1)
    out[:threshold] = dist[:threshold]
    out[threshold] = dist[threshold:].sum()
    return out


def matrix_detection_probability(
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    threshold: Optional[int] = None,
    normalize: bool = True,
) -> float:
    """``P_M[X >= k]`` (Eq. 13) from :func:`matrix_report_count_distribution`."""
    k = scenario.threshold if threshold is None else threshold
    distribution = matrix_report_count_distribution(
        scenario, body_truncation, head_truncation, substeps
    )
    tail = float(distribution[k:].sum())
    return tail / float(distribution.sum()) if normalize else tail


def report_count_pmf_single_period(scenario: Scenario) -> np.ndarray:
    """Pmf of the report count in one sensing period (Eq. 1).

    Returns:
        Array of length ``N + 1``; entry ``m`` is ``P1[X = m]``.
    """
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
    # P1[X >= k] = 1 - sum_{i<k} P1[X = i] = survival function at k-1.
    return float(
        stats.binom.sf(scenario.threshold - 1, scenario.num_sensors, scenario.p_indi)
    )
