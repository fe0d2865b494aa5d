"""The paper's contribution: analytical models of group based detection.

Public entry points:

* :class:`~repro.core.scenario.Scenario` — the parameter bundle
  ``(S, N, Rs, V, t, Pd, M, k)``.
* :class:`~repro.core.spatial.SApproach` — the exact-but-expensive
  S-approach (Section 3.3).
* :class:`~repro.core.batched.BatchedMarkovSpatialAnalysis` — the
  M-S-approach, the paper's headline method (Section 3.4): the one
  Eq. 12 engine, evaluated over whole ``(N, k)`` grids in stacked kernels.
* :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis` — the same
  engine viewed at one scenario, with the stage pmfs and Eq. 7/9/14
  accuracies.
* :class:`~repro.core.exact_spatial.ExactSpatialAnalysis` — untruncated
  exact reference (our addition; see DESIGN.md).
* :class:`~repro.core.multinode.MultiNodeAnalysis` — the ">= k reports from
  >= h nodes" extension sketched at the end of Section 4.
* :mod:`~repro.core.false_alarms` — the Section 6 future-work false-alarm
  model (minimum safe ``k``).
"""

from repro.core.scenario import Scenario
from repro.core.spatial import SApproach
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.latency import DetectionLatencyAnalysis
from repro.core.multinode import MultiNodeAnalysis
from repro.core.accuracy import (
    required_body_truncation,
    required_head_truncation,
    required_s_approach_truncation,
    stage_accuracy,
)
from repro.core.design import (
    DesignPoint,
    design_deployment,
    maximum_threshold,
    minimum_sensors,
)

__all__ = [
    "BatchedMarkovSpatialAnalysis",
    "DetectionLatencyAnalysis",
    "ExactSpatialAnalysis",
    "MarkovSpatialAnalysis",
    "DesignPoint",
    "MultiNodeAnalysis",
    "SApproach",
    "Scenario",
    "design_deployment",
    "maximum_threshold",
    "minimum_sensors",
    "required_body_truncation",
    "required_head_truncation",
    "required_s_approach_truncation",
    "stage_accuracy",
]
