"""The pluggable oracle seam adaptive searches evaluate points through.

An *evaluator* answers design-space oracle queries: given a template
scenario and a batch of sweep-style replacement points (the exact shape
:func:`repro.core.batched.resolve_point` resolves — scenario field
overrides plus an optional ``"threshold"``), it returns one model
detection probability per point.  Searches never build engines
themselves; they go through this seam, so the same bisection code runs
against the in-process batched engine or the process-wide
:mod:`repro.cache` unchanged, and tests substitute fakes through the
:class:`Evaluator` base class.

Exactness contract
------------------

Every evaluator must return values **bitwise identical** to the batched
grid the dense scans read.  That holds because both of them bottom out in
:class:`repro.core.batched.BatchedMarkovSpatialAnalysis`, whose kernels
are batch-invariant (a singleton evaluation equals the matching grid
cell byte-for-byte).  ``tests/integration/test_adaptive_matrix.py``
pins this for both evaluators.

Accounting
----------

Each evaluator owns (or shares) an
:class:`repro.adaptive.ledger.EvaluationLedger`.  ``evaluate`` and
``grid`` charge every point they *compute* — the budget is pre-checked
before a batch is dispatched, but the charge itself lands only after
the computation succeeds, so a failed dispatch consumes no
budget and inflates no counters.  The caching evaluator charges only
misses and books hits separately — a cache hit must never inflate the
evaluation count the oracle-equivalence tier asserts on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.adaptive.ledger import EvaluationLedger
from repro.cache import AnalysisCache, analysis_cache, design_point_key
from repro.core.batched import (
    detection_probability_grid,
    point_detection_probability,
)
from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = ["CachedEvaluator", "Evaluator", "InProcessEvaluator"]

Point = Dict[str, object]

#: Engine parameters every evaluator resolves values under; an evaluator
#: wrapping another must agree with it on all of these.
_ENGINE_PARAMS = ("truncation", "head_truncation", "substeps", "normalize")


class Evaluator:
    """Base class: engine parameters + ledger + the two query shapes.

    Args:
        truncation: M-S body truncation ``g`` forwarded to the engine.
        head_truncation: head truncation (``None`` = engine default).
        substeps: path-discretisation substeps.
        normalize: forward to ``detection_probability`` (window-start
            normalisation).
        ledger: shared :class:`EvaluationLedger`; a private one is
            created when omitted.
    """

    name = "base"

    def __init__(
        self,
        truncation: int = 3,
        head_truncation: Optional[int] = None,
        substeps: int = 1,
        normalize: bool = True,
        ledger: Optional[EvaluationLedger] = None,
    ):
        self.truncation = truncation
        self.head_truncation = head_truncation
        self.substeps = substeps
        self.normalize = normalize
        self.ledger = ledger if ledger is not None else EvaluationLedger()

    # -- the two query shapes ------------------------------------------

    def evaluate(self, scenario: Scenario, points: Sequence[Point]) -> List[float]:
        """Detection probability for each replacement point, in order.

        The budget is checked *before* dispatching (a runaway search
        stops before the work), but the ledger is charged only *after* the
        batch computes — a dispatch that raises consumes nothing.
        """
        points = list(points)
        if not points:
            return []
        self.ledger.precheck(len(points))
        values = self._compute_points(scenario, points)
        self.ledger.charge(len(points))
        return values

    def grid(
        self,
        scenario: Scenario,
        num_sensors: Optional[Sequence[int]] = None,
        thresholds: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Dense ``(N-axis, k-axis)`` grid; ``None`` axes use the template.

        The dense scans in :mod:`repro.core.design` run through this, so
        dense and adaptive paths are charged on the same ledger and their
        evaluation counts are directly comparable.
        """
        counts, ks = self._resolve_axes(scenario, num_sensors, thresholds)
        self.ledger.precheck(len(counts) * len(ks))
        values = self._compute_grid(scenario, num_sensors, thresholds)
        self.ledger.charge(len(counts) * len(ks))
        return values

    # -- subclass hooks ------------------------------------------------

    def _compute_points(
        self, scenario: Scenario, points: List[Point]
    ) -> List[float]:
        raise NotImplementedError

    def _compute_grid(
        self,
        scenario: Scenario,
        num_sensors: Optional[Sequence[int]],
        thresholds: Optional[Sequence[int]],
    ) -> np.ndarray:
        counts, ks = self._resolve_axes(scenario, num_sensors, thresholds)
        flat = [
            {"num_sensors": int(count), "threshold": int(k)}
            for count in counts
            for k in ks
        ]
        values = self._compute_points(scenario, flat)
        return np.array(values, dtype=float).reshape(len(counts), len(ks))

    # -- shared helpers ------------------------------------------------

    @staticmethod
    def _resolve_axes(scenario, num_sensors, thresholds):
        counts = (
            [scenario.num_sensors] if num_sensors is None else list(num_sensors)
        )
        ks = [scenario.threshold] if thresholds is None else list(thresholds)
        return counts, ks


class InProcessEvaluator(Evaluator):
    """Evaluate on the in-process batched engine (the reference evaluator).

    Point evaluations use singleton axes of the same engine the grid
    path uses, so both answers are bitwise equal (batch invariance).
    """

    name = "in-process"

    def _compute_points(
        self, scenario: Scenario, points: List[Point]
    ) -> List[float]:
        return [
            point_detection_probability(
                scenario,
                point,
                body_truncation=self.truncation,
                head_truncation=self.head_truncation,
                substeps=self.substeps,
                normalize=self.normalize,
            )
            for point in points
        ]

    def _compute_grid(
        self,
        scenario: Scenario,
        num_sensors: Optional[Sequence[int]],
        thresholds: Optional[Sequence[int]],
    ) -> np.ndarray:
        return detection_probability_grid(
            scenario,
            num_sensors=num_sensors,
            thresholds=thresholds,
            body_truncation=self.truncation,
            head_truncation=self.head_truncation,
            substeps=self.substeps,
            normalize=self.normalize,
        )


class CachedEvaluator(Evaluator):
    """Memoise point values in ``repro.cache`` around an inner evaluator.

    Lookups key on :func:`repro.cache.design_point_key` — the fully
    resolved scenario plus threshold and engine parameters — so repeated
    frontier queries (different targets, overlapping sample points) are
    answered from the table instead of re-dispatching.  Only misses are
    charged to the ledger; hits go to ``ledger.cache_hits``.  Values are
    stored as plain floats straight from the inner evaluator, so a cache
    hit is bitwise identical to a recomputation.

    Args:
        inner: evaluator that computes misses (default: a fresh
            :class:`InProcessEvaluator` with the same parameters).  When
            an inner evaluator is provided it is the source of truth for
            the engine parameters — passing an engine kwarg that
            disagrees with it raises :class:`repro.errors.AnalysisError`
            rather than silently dropping the override (the cache key
            must describe what the inner evaluator actually computes).
        cache: the :class:`repro.cache.AnalysisCache` table to use
            (default: the process-wide one).
    """

    name = "cached"

    def __init__(
        self,
        inner: Optional[Evaluator] = None,
        cache: Optional[AnalysisCache] = None,
        **kwargs,
    ):
        if inner is not None:
            conflicts = sorted(
                name
                for name in _ENGINE_PARAMS
                if name in kwargs and kwargs[name] != getattr(inner, name)
            )
            if conflicts:
                raise AnalysisError(
                    "CachedEvaluator engine parameters conflict with the "
                    f"inner evaluator's: {', '.join(conflicts)}; the cache "
                    "key must describe what the inner evaluator computes — "
                    "drop the overrides or set them on the inner evaluator"
                )
            # Adopt the inner evaluator's engine parameters wholesale.
            for name in _ENGINE_PARAMS:
                kwargs[name] = getattr(inner, name)
        super().__init__(**kwargs)
        if inner is None:
            inner = InProcessEvaluator(
                truncation=self.truncation,
                head_truncation=self.head_truncation,
                substeps=self.substeps,
                normalize=self.normalize,
                ledger=self.ledger,
            )
        self.inner = inner
        self.cache = cache if cache is not None else analysis_cache()

    def _point_key(self, scenario: Scenario, point: Point):
        # The engine's head rule: ``None`` means "same as the body".
        head = (
            self.truncation
            if self.head_truncation is None
            else self.head_truncation
        )
        return design_point_key(
            scenario,
            self.truncation,
            head,
            self.substeps,
            self.normalize,
            point,
        )

    def evaluate(self, scenario: Scenario, points: Sequence[Point]) -> List[float]:
        points = list(points)
        if not points:
            return []
        keys = [self._point_key(scenario, point) for point in points]
        values: List[Optional[float]] = [None] * len(points)
        missing_keys = []
        missing_points = []
        first_index: Dict[object, int] = {}
        hits = 0
        for index, key in enumerate(keys):
            found, value = self.cache.lookup(key)
            if found:
                values[index] = value
                hits += 1
            elif key not in first_index:
                first_index[key] = index
                missing_keys.append(key)
                missing_points.append(points[index])
        self.ledger.record_cache_hits(hits)
        fresh: Dict[object, float] = {}
        if missing_points:
            self.ledger.precheck(len(missing_points))
            computed = self.inner._compute_points(scenario, missing_points)
            self.ledger.charge(len(missing_points))
            for key, value in zip(missing_keys, computed):
                # First writer wins; keep whatever the table now holds so
                # a racing thread and this one return identical bytes.
                fresh[key] = self.cache.store(key, float(value))
        for index, key in enumerate(keys):
            if values[index] is None:
                values[index] = fresh[key]
        return [float(value) for value in values]

    def grid(
        self,
        scenario: Scenario,
        num_sensors: Optional[Sequence[int]] = None,
        thresholds: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Dense grid answered cell-by-cell through the point memo.

        Routing the dense path through the same memo keeps the charged
        counts honest (a warm dense scan costs zero evaluations) and
        keeps values bitwise equal to the uncached grid — batch
        invariance again.
        """
        counts, ks = self._resolve_axes(scenario, num_sensors, thresholds)
        flat = [
            {"num_sensors": int(count), "threshold": int(k)}
            for count in counts
            for k in ks
        ]
        values = self.evaluate(scenario, flat)
        return np.array(values, dtype=float).reshape(len(counts), len(ks))
