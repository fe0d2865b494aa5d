"""Counting chains: the shift-structured Markov chains of Figs. 5-7.

The M-S-approach tracks one number — how many detection reports have been
generated so far.  Each stage adds an independent, non-negative increment
whose pmf is the stage's report-count distribution, so every transition
matrix has the Toeplitz "shift" structure ``T[s, s + m] = pmf[m]``
(Figs. 5-7 of the paper).  Propagating a distribution through such a matrix
is exactly a discrete convolution: the engine takes the convolution view,
and :mod:`repro.markov.oracle` builds the matrices this module provides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DistributionError

__all__ = ["validate_pmf", "counting_transition_matrix"]

_TOLERANCE = 1e-9


def validate_pmf(pmf: Sequence[float], substochastic: bool = False) -> np.ndarray:
    """Validate a pmf over counts ``0..len(pmf)-1``.

    Args:
        pmf: candidate probability mass function.
        substochastic: allow total mass below 1 (truncated distributions).

    Returns:
        The pmf as a float array.

    Raises:
        DistributionError: on negative entries, empty input, or a total mass
            outside the allowed range.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DistributionError(f"pmf must be a non-empty 1-D array, got shape {arr.shape}")
    if (arr < -_TOLERANCE).any():
        raise DistributionError("pmf has negative entries")
    total = arr.sum()
    if total > 1.0 + _TOLERANCE:
        raise DistributionError(f"pmf mass {total} exceeds 1")
    if not substochastic and abs(total - 1.0) > 1e-6:
        raise DistributionError(
            f"pmf mass {total} differs from 1 (pass substochastic=True for "
            "truncated distributions)"
        )
    return np.clip(arr, 0.0, None)


def counting_transition_matrix(
    step_pmf: Sequence[float], num_states: int, absorb_overflow: bool = True
) -> np.ndarray:
    """Build the shift-structured transition matrix ``T[s, s+m] = pmf[m]``.

    Args:
        step_pmf: pmf of the per-stage report count (may be substochastic).
        num_states: number of count states ``0..num_states-1``.
        absorb_overflow: when ``True``, increments that would push the count
            past the last state accumulate in the last state (the paper's
            merged ">= k" tail state behaves this way); when ``False`` the
            overflowing mass is dropped, making the matrix substochastic
            even for a proper ``step_pmf``.

    Returns:
        ``(num_states, num_states)`` transition matrix.

    Raises:
        DistributionError: for an invalid pmf or non-positive state count.
    """
    pmf = validate_pmf(step_pmf, substochastic=True)
    if num_states <= 0:
        raise DistributionError(f"num_states must be positive, got {num_states}")
    matrix = np.zeros((num_states, num_states))
    for state in range(num_states):
        for increment, mass in enumerate(pmf):
            if mass == 0.0:
                continue
            target = state + increment
            if target < num_states:
                matrix[state, target] += mass
            elif absorb_overflow:
                matrix[state, num_states - 1] += mass
    return matrix
