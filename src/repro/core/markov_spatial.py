"""The M-S-approach (Section 3.4): the paper's headline contribution.

The ARegion is processed one NEDR per period.  Each stage's report-count
pmf is computed over at most ``gh`` (Head) or ``g`` (Body/Tail) sensors in
that NEDR, and a counting Markov chain accumulates the total:

* **Head stage** — period 1, NEDR is the whole first DR, subareas
  ``AreaH(i)`` (Eq. 6), truncation ``gh``;
* **Body stage** — periods ``2 .. M - ms``, crescent NEDR of area
  ``2*Rs*V*t``, subareas ``AreaB(i)`` (Eq. 8), truncation ``g``, all
  ``M - ms - 1`` steps share one transition matrix;
* **Tail stage** — periods ``M - ms + 1 .. M``, same NEDR area but subareas
  ``AreaT_j(i)`` (Eq. 10), one distinct matrix per step.

``Result = u * TH * TB^(M-ms-1) * prod_j TT_j`` (Eq. 12), and the detection
probability normalises by the captured mass (Eq. 13).  Every transition
matrix is a pure counting shift, so the chain is a sequence of pmf
convolutions; :class:`~repro.core.batched.BatchedMarkovSpatialAnalysis`
runs it for a whole ``N`` axis at once, and :class:`MarkovSpatialAnalysis`
is that engine viewed at the scenario's own ``N``.  The literal matrix
product is kept only as an independent test oracle
(:mod:`repro.markov.oracle`).
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.regions import body_subareas, head_subareas, tail_subareas

__all__ = ["MarkovSpatialAnalysis"]


class MarkovSpatialAnalysis(BatchedMarkovSpatialAnalysis):
    """M-S-approach analysis of ``P_M[X >= k]`` at the scenario's own ``N``.

    A singleton view of :class:`BatchedMarkovSpatialAnalysis`: every value
    is row 0 of the batched stacks, so :meth:`detection_probability` is
    bitwise equal to the matching ``detection_probability_grid`` cell.

    Args:
        scenario: the model parameters; requires ``M > ms`` (the general
            case the paper analyses).
        body_truncation: ``g`` — maximum sensors per Body/Tail NEDR
            considered.  The paper uses 3 for all reported results.
        head_truncation: ``gh`` — maximum sensors in the Head NEDR;
            defaults to ``body_truncation``.
        substeps: split each NEDR into this many equal-probability slices
            and convolve per-slice pmfs — the refinement Section 3.4.5
            sketches ("further dividing the computation in that step into
            multiple substeps") to reach a given accuracy with a smaller
            per-slice truncation.  1 (default) is the paper's base method.

    Raises:
        AnalysisError: on invalid truncations, ``substeps < 1``, or
            ``M <= ms``.
    """

    # ------------------------------------------------------------------
    # Stage report distributions
    # ------------------------------------------------------------------

    def _stage_row(self, subareas: np.ndarray, truncation: int) -> np.ndarray:
        counts = np.asarray([self._scenario.num_sensors])
        return self._batched_stage_pmf(subareas, truncation, counts)[0]

    def head_stage_pmf(self) -> np.ndarray:
        """``p_{h:m}``: report pmf of the Head NEDR (substochastic)."""
        return self._stage_row(head_subareas(self._scenario), self._gh)

    def body_stage_pmf(self) -> np.ndarray:
        """``p_{b:m}``: report pmf of one Body NEDR (substochastic)."""
        return self._stage_row(body_subareas(self._scenario), self._g)

    def tail_stage_pmf(self, tail_index: int) -> np.ndarray:
        """``p_{tj:m}``: report pmf of Tail NEDR ``T_j`` (substochastic)."""
        return self._stage_row(
            tail_subareas(self._scenario, tail_index), self._g
        )

    # ------------------------------------------------------------------
    # Accuracy (Eqs. 7, 9, 14)
    # ------------------------------------------------------------------

    def head_stage_accuracy(self) -> float:
        """``xi_h`` (Eq. 7): probability of at most ``gh`` sensors in the Head NEDR."""
        return float(self.head_stage_pmf().sum())

    def body_stage_accuracy(self) -> float:
        """``xi`` (Eq. 9): probability of at most ``g`` sensors in a Body NEDR."""
        return float(self.body_stage_pmf().sum())

    def analysis_accuracy(self) -> float:
        """``eta_MS = xi_h * xi^(M-1)`` (Eq. 14).

        The paper notes this is a *lower bound* on the achieved accuracy
        once the Eq. 13 normalisation is applied.
        """
        return self.head_stage_accuracy() * self.body_stage_accuracy() ** (
            self._scenario.window - 1
        )

    # ------------------------------------------------------------------
    # Result distribution (Eq. 12)
    # ------------------------------------------------------------------

    def report_count_distribution(self) -> np.ndarray:
        """The (substochastic) pmf of the total report count after ``M`` periods.

        Row 0 of :meth:`report_count_distributions` — cached and
        read-only (copy before mutating).
        """
        return self.report_count_distributions()[0]
