"""Multi-node group detection: ">= k reports from >= h nodes" (Section 4).

The paper sketches this extension at the end of Section 4: enlarge the
counting chain's state space from ``MZ + 1`` to track, alongside the report
total ``m``, the number of distinct reporting nodes ``n`` (merged once
``n >= h``).  Because the NEDRs are pairwise disjoint, every sensor belongs
to exactly one stage, so the distinct-node count over the window is the sum
of per-stage reporting-node counts — the joint ``(reports, nodes)``
distribution propagates by two-dimensional convolution, with the node axis
capped at ``h``.

A sensor with coverage ``i`` reports ``Binomial(i, Pd)`` times and counts
as a reporting node exactly when it reports at least once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.regions import body_subareas, head_subareas, tail_subareas
from repro.core.report_dist import conditional_report_pmf, occupancy_pmf
from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = ["MultiNodeAnalysis"]


def _cap_node_axis(joint: np.ndarray, cap: int) -> np.ndarray:
    """Merge all node counts ``>= cap`` into row index ``cap``."""
    if joint.shape[0] <= cap + 1:
        padded = np.zeros((cap + 1, joint.shape[1]))
        padded[: joint.shape[0]] = joint
        return padded
    capped = np.zeros((cap + 1, joint.shape[1]))
    capped[:cap] = joint[:cap]
    capped[cap] = joint[cap:].sum(axis=0)
    return capped


class MultiNodeAnalysis:
    """Joint (reports, distinct nodes) analysis via the M-S decomposition.

    Args:
        scenario: the model parameters; requires ``M > ms``.
        min_nodes: ``h`` — distinct reporting nodes required for a system
            level detection.
        body_truncation: ``g`` as in
            :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis`.
        head_truncation: ``gh``; defaults to ``body_truncation``.

    Raises:
        AnalysisError: on invalid parameters or ``M <= ms``.
    """

    def __init__(
        self,
        scenario: Scenario,
        min_nodes: int = 1,
        body_truncation: int = 3,
        head_truncation: Optional[int] = None,
    ):
        if min_nodes < 1:
            raise AnalysisError(f"min_nodes must be >= 1, got {min_nodes}")
        if body_truncation < 1:
            raise AnalysisError(
                f"body_truncation must be >= 1, got {body_truncation}"
            )
        head_truncation = (
            body_truncation if head_truncation is None else head_truncation
        )
        if head_truncation < 1:
            raise AnalysisError(
                f"head_truncation must be >= 1, got {head_truncation}"
            )
        if not scenario.has_body_stage:
            raise AnalysisError(
                f"the stage decomposition requires M > ms "
                f"(M={scenario.window}, ms={scenario.ms})"
            )
        self._scenario = scenario
        self._h = min_nodes
        self._g = body_truncation
        self._gh = head_truncation

    @property
    def scenario(self) -> Scenario:
        """The analysed scenario."""
        return self._scenario

    @property
    def min_nodes(self) -> int:
        """``h``."""
        return self._h

    def _per_sensor_joint(self, subareas: np.ndarray) -> np.ndarray:
        """Joint (nodes, reports) pmf of one sensor inside the NEDR.

        Row 0 holds the zero-report outcome, row 1 the reporting outcomes.
        """
        reports = conditional_report_pmf(subareas, self._scenario.detect_prob)
        joint = np.zeros((2, reports.size))
        joint[0, 0] = reports[0]
        joint[1, 1:] = reports[1:]
        return joint

    def _stage_joint(self, subareas: np.ndarray, max_sensors: int) -> np.ndarray:
        """Joint (nodes, reports) pmf of one NEDR, truncated at ``max_sensors``."""
        from scipy import signal

        per_sensor = self._per_sensor_joint(subareas)
        occupancy = occupancy_pmf(
            float(np.asarray(subareas, dtype=float).sum()),
            self._scenario.field_area,
            self._scenario.num_sensors,
            max_sensors,
        )
        n_fold = np.array([[1.0]])
        max_reports = max_sensors * (per_sensor.shape[1] - 1)
        accum = np.zeros((self._h + 1, max_reports + 1))
        accum[0, 0] = occupancy[0]
        for count in range(1, occupancy.size):
            n_fold = signal.convolve2d(n_fold, per_sensor)
            n_fold = _cap_node_axis(n_fold, self._h)
            if occupancy[count] > 0.0:
                block = occupancy[count] * n_fold
                accum[: block.shape[0], : block.shape[1]] += block
        return accum

    def joint_distribution(self) -> np.ndarray:
        """Joint pmf over (distinct nodes capped at ``h``, total reports).

        Substochastic for the same reason the M-S pmfs are; normalise with
        the total mass as in Eq. 13.
        """
        from scipy import signal

        scenario = self._scenario
        result = self._stage_joint(head_subareas(scenario), self._gh)
        body = self._stage_joint(body_subareas(scenario), self._g)
        for _ in range(scenario.body_steps):
            result = _cap_node_axis(signal.convolve2d(result, body), self._h)
        for j in range(1, scenario.ms + 1):
            tail = self._stage_joint(tail_subareas(scenario, j), self._g)
            result = _cap_node_axis(signal.convolve2d(result, tail), self._h)
        return result

    def detection_probability(
        self,
        threshold: Optional[int] = None,
        normalize: bool = True,
    ) -> float:
        """``P[X >= k and distinct reporting nodes >= h]``."""
        k = self._scenario.threshold if threshold is None else threshold
        if k < 0:
            raise AnalysisError(f"threshold must be non-negative, got {k}")
        joint = self.joint_distribution()
        if k >= joint.shape[1]:
            tail = 0.0
        else:
            tail = float(joint[self._h, k:].sum())
        if not normalize:
            return tail
        total = float(joint.sum())
        if total <= 0.0:
            raise AnalysisError(
                "captured probability mass is zero; increase the truncations"
            )
        return tail / total
