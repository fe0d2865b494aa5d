"""Deployment design tools built on the analytical model.

The paper's closing argument is that the M-S-approach lets a system
designer answer sizing questions "without running extensive simulations".
This module turns that into an API: invert the model over its three main
design knobs — fleet size ``N``, detection rule ``(k, M)``, and the
detection requirement — under a node-level false alarm budget.

All searches are over integers and use the model's monotonicities
(detection probability is non-decreasing in ``N`` and non-increasing in
``k``), which the test suite pins down.  Candidate ranges are evaluated
through the :mod:`repro.adaptive.evaluators` seam — by default an
in-process :class:`repro.core.batched.BatchedMarkovSpatialAnalysis`
evaluating whole ``N`` chunks (or the whole ``k`` axis, answered from
one survival function) per kernel call instead of one scalar pipeline
per candidate.  Passing ``evaluator=`` redirects the same scans through
the point cache, and charges their dense cost
to the evaluator's ledger — which is how the oracle-equivalence tier
compares them against :mod:`repro.adaptive.search`, the bisection layer
that answers these queries exactly from O(log) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.false_alarms import minimum_safe_threshold
from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = [
    "DesignPoint",
    "detection_probability",
    "minimum_sensors",
    "maximum_threshold",
    "design_deployment",
]

#: Candidate fleet sizes evaluated per kernel call by the ascending scans.
#: Large enough that the per-call fixed cost (stage pmf assembly) is
#: amortised, small enough that an early answer does not pay for the
#: whole search ceiling.
_SCAN_CHUNK = 128


def _resolve_evaluator(evaluator, truncation):
    """The oracle a scan or search evaluates through (default: in-process).

    Imported lazily: :mod:`repro.adaptive` depends on this module for
    the dense-scan semantics its fallbacks replicate, so the evaluator
    import must not run at module import time.
    """
    if evaluator is not None:
        return evaluator
    from repro.adaptive.evaluators import InProcessEvaluator

    return InProcessEvaluator(truncation=truncation)


def detection_probability(scenario: Scenario, truncation: int = 3) -> float:
    """Model detection probability for a scenario (M-S-approach, Eq. 13).

    Evaluated on the batched kernel (singleton grid), so design-layer
    numbers are bitwise consistent with sweep rows and with
    :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis`.
    """
    return BatchedMarkovSpatialAnalysis(
        scenario, body_truncation=truncation
    ).detection_probability()


def minimum_sensors(
    scenario: Scenario,
    required_probability: float,
    max_sensors: int = 2_000,
    truncation: int = 3,
    evaluator=None,
) -> Optional[int]:
    """Smallest ``N`` whose detection probability meets the requirement.

    Other scenario fields (rule, geometry) are held fixed.  Scans the
    candidate range in ascending batched chunks — each kernel call
    answers :data:`_SCAN_CHUNK` fleet sizes at once — and returns at the
    first chunk containing a meeting ``N``.

    Args:
        scenario: template scenario (its ``num_sensors`` is ignored).
        required_probability: target ``P_M[X >= k]`` in ``(0, 1)``.
        max_sensors: search ceiling.
        truncation: M-S truncation ``g``.
        evaluator: optional :class:`repro.adaptive.Evaluator` the chunks
            are evaluated (and their cost charged) through; see
            :func:`repro.adaptive.adaptive_minimum_sensors` for the
            bisected equivalent.

    Returns:
        The minimal ``N``, or ``None`` if even ``max_sensors`` falls short.
    """
    if not 0.0 < required_probability < 1.0:
        raise AnalysisError(
            f"required_probability must be in (0, 1), got {required_probability}"
        )
    if max_sensors < 1:
        raise AnalysisError(f"max_sensors must be >= 1, got {max_sensors}")
    ev = _resolve_evaluator(evaluator, truncation)
    for start in range(1, max_sensors + 1, _SCAN_CHUNK):
        counts = list(range(start, min(start + _SCAN_CHUNK, max_sensors + 1)))
        column = np.asarray(ev.grid(scenario, num_sensors=counts))[:, 0]
        meeting = np.flatnonzero(column >= required_probability)
        if meeting.size:
            return counts[int(meeting[0])]
    return None


def maximum_threshold(
    scenario: Scenario,
    required_probability: float,
    truncation: int = 3,
    evaluator=None,
) -> Optional[int]:
    """Largest ``k`` (false-alarm immunity) still meeting the requirement.

    The whole ``k`` range is answered from one survival function (one
    batched evaluation); as in the sequential scan this replaced, the
    answer is the last ``k`` before the first failing one.

    Returns ``None`` when even ``k = 1`` misses the requirement.
    """
    if not 0.0 < required_probability < 1.0:
        raise AnalysisError(
            f"required_probability must be in (0, 1), got {required_probability}"
        )
    thresholds = list(
        range(1, scenario.num_sensors * (scenario.ms + 1) + 1)
    )
    ev = _resolve_evaluator(evaluator, truncation)
    row = np.asarray(ev.grid(scenario, thresholds=thresholds))[0]
    failing = np.flatnonzero(row < required_probability)
    if failing.size == 0:
        return thresholds[-1]
    first_failure = int(failing[0])
    if first_failure == 0:
        return None
    return thresholds[first_failure - 1]


@dataclass(frozen=True)
class DesignPoint:
    """One feasible deployment design.

    Attributes:
        scenario: the fully-specified scenario (N and k filled in).
        detection_probability: model detection probability at this design.
        window_false_alarm_probability: system false alarm probability per
            ``M``-period window under the Bernoulli node model.
    """

    scenario: Scenario
    detection_probability: float
    window_false_alarm_probability: float


def design_deployment(
    template: Scenario,
    required_probability: float,
    node_false_alarm_prob: float,
    max_window_fa_probability: float,
    max_sensors: int = 2_000,
    truncation: int = 3,
    evaluator=None,
) -> Optional[DesignPoint]:
    """Joint design: smallest ``N`` with the FA-safe ``k`` meeting detection.

    For each candidate fleet size the threshold is first raised to the
    minimum safe value for the false alarm budget
    (:func:`repro.core.false_alarms.minimum_safe_threshold` — larger
    fleets generate more false reports and need larger ``k``), then the
    detection requirement is checked.  Returns the cheapest feasible
    design, or ``None``.

    Detection probability is *not* monotone in ``N`` here (``k_min``
    grows with ``N``), so the candidate scan cannot bisect; instead every
    ``(N, k_min(N))`` pair is read off one batched grid over the
    candidate counts and the distinct safe thresholds.
    """
    if max_sensors < 1:
        raise AnalysisError(f"max_sensors must be >= 1, got {max_sensors}")
    step = max(1, max_sensors // 200)
    counts = list(range(step, max_sensors + 1, step))
    thresholds = [
        minimum_safe_threshold(
            count,
            template.window,
            node_false_alarm_prob,
            max_window_fa_probability,
        )
        for count in counts
    ]
    distinct = sorted(set(thresholds))
    ev = _resolve_evaluator(evaluator, truncation)
    grid = np.asarray(ev.grid(template, num_sensors=counts, thresholds=distinct))
    column_of = {threshold: j for j, threshold in enumerate(distinct)}
    for i, (count, threshold) in enumerate(zip(counts, thresholds)):
        p_detect = float(grid[i, column_of[threshold]])
        if p_detect >= required_probability:
            from repro.core.false_alarms import window_false_alarm_probability

            return DesignPoint(
                scenario=template.replace(
                    num_sensors=count, threshold=threshold
                ),
                detection_probability=p_detect,
                window_false_alarm_probability=window_false_alarm_probability(
                    count, template.window, node_false_alarm_prob, threshold
                ),
            )
    return None
