"""Adaptive design-space search, exact by construction.

``repro.adaptive`` answers the sizing questions of
:mod:`repro.core.design` — minimum fleet, maximum threshold, rule
frontiers, feasibility slices — from 10-100x fewer oracle evaluations
than the dense grid scans, while returning **identical** answers.  See
:mod:`repro.adaptive.search` for the exactness contract and
:mod:`repro.adaptive.evaluators` for the pluggable evaluator seam
(in-process or cached).
"""

from repro.adaptive.evaluators import (
    CachedEvaluator,
    Evaluator,
    InProcessEvaluator,
)
from repro.adaptive.ledger import BudgetExceededError, EvaluationLedger
from repro.adaptive.search import (
    MonotoneOracle,
    adaptive_design_slice,
    adaptive_maximum_threshold,
    adaptive_minimum_sensors,
    adaptive_rule_frontier,
    bisect_first_meeting,
    bisect_last_meeting,
    dense_design_slice,
    dense_rule_frontier,
)

__all__ = [
    "BudgetExceededError",
    "CachedEvaluator",
    "EvaluationLedger",
    "Evaluator",
    "InProcessEvaluator",
    "MonotoneOracle",
    "adaptive_design_slice",
    "adaptive_maximum_threshold",
    "adaptive_minimum_sensors",
    "adaptive_rule_frontier",
    "bisect_first_meeting",
    "bisect_last_meeting",
    "dense_design_slice",
    "dense_rule_frontier",
]

