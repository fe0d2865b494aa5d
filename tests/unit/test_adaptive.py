"""Unit tests for repro.adaptive (ledger, evaluators, search policies)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.adaptive import (
    BudgetExceededError,
    CachedEvaluator,
    EvaluationLedger,
    Evaluator,
    InProcessEvaluator,
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
from repro.cache import analysis_cache, clear_analysis_cache
from repro.core.design import maximum_threshold, minimum_sensors
from repro.errors import AnalysisError


def oracle_from(values, direction, counter=None):
    """A MonotoneOracle over a list, optionally counting evaluations."""

    def batch(indexes):
        if counter is not None:
            counter[0] += len(indexes)
        return [values[i] for i in indexes]

    return MonotoneOracle(batch, direction)


class ExplodingEvaluator(Evaluator):
    """An evaluator whose every dispatch fails.

    Subclasses the seam base directly so both ``evaluate`` and ``grid``
    route through the failing ``_compute_points`` hook.
    """

    def _compute_points(self, scenario, points):
        raise RuntimeError("dispatch lost")


class TestLedger:
    def test_counters_accumulate_and_snapshot(self):
        ledger = EvaluationLedger()
        ledger.charge(3)
        ledger.charge(2)
        ledger.record_cache_hits(4)
        ledger.note_bisection()
        ledger.note_fallback()
        ledger.note_skipped(10)
        assert ledger.stats() == {
            "budget": None,
            "evaluations": 5,
            "batches": 2,
            "cache_hits": 4,
            "bisections": 1,
            "fallbacks": 1,
            "skipped": 10,
        }

    def test_budget_blocks_before_spending(self):
        ledger = EvaluationLedger(budget=5)
        ledger.charge(4)
        with pytest.raises(BudgetExceededError):
            ledger.charge(2)
        # The refused charge spent nothing.
        assert ledger.evaluations == 4
        assert ledger.remaining() == 1
        ledger.charge(1)
        assert ledger.remaining() == 0

    def test_skipped_clamped_at_zero(self):
        ledger = EvaluationLedger()
        ledger.note_skipped(-3)
        assert ledger.skipped == 0

    def test_invalid_budget_and_charge_rejected(self):
        with pytest.raises(AnalysisError):
            EvaluationLedger(budget=0)
        with pytest.raises(AnalysisError):
            EvaluationLedger().charge(-1)

    def test_counters_mirror_into_obs(self, small):
        instrumentation = obs.Instrumentation()
        with obs.activate(instrumentation):
            evaluator = InProcessEvaluator()
            adaptive_minimum_sensors(
                small, 0.5, max_sensors=32, evaluator=evaluator
            )
        counters = instrumentation.manifest()["counters"]
        assert counters["adaptive.evaluations"] == evaluator.ledger.evaluations
        assert counters["adaptive.bisections"] == 1
        assert counters["adaptive.skipped"] == evaluator.ledger.skipped
        assert "adaptive.fallbacks" not in counters


class TestBisectionCores:
    def test_first_meeting_matches_linear_scan(self):
        values = [0.0, 0.1, 0.2, 0.5, 0.5, 0.8, 0.9, 1.0]
        for target in (0.05, 0.2, 0.5, 0.85, 0.99):
            ledger = EvaluationLedger()
            got = bisect_first_meeting(
                oracle_from(values, +1), 0, len(values) - 1, target, ledger
            )
            expected = next(
                (i for i, v in enumerate(values) if v >= target), None
            )
            assert got == expected
            assert ledger.fallbacks == 0

    def test_first_meeting_endpoints(self):
        ledger = EvaluationLedger()
        assert (
            bisect_first_meeting(oracle_from([0.9], +1), 0, 0, 0.5, ledger)
            == 0
        )
        assert (
            bisect_first_meeting(oracle_from([0.1], +1), 0, 0, 0.5, ledger)
            is None
        )

    def test_last_meeting_matches_dense_rule(self):
        values = [1.0, 0.9, 0.7, 0.7, 0.4, 0.2]
        for target in (0.95, 0.7, 0.5, 0.1):
            ledger = EvaluationLedger()
            got = bisect_last_meeting(
                oracle_from(values, -1), 0, len(values) - 1, target, ledger
            )
            failing = next(
                (i for i, v in enumerate(values) if v < target), None
            )
            if failing is None:
                expected = len(values) - 1
            elif failing == 0:
                expected = None
            else:
                expected = failing - 1
            assert got == expected
            assert ledger.fallbacks == 0

    def test_violation_at_endpoints_falls_back(self):
        # Decreasing values under an "increasing" claim: caught on the
        # very first (endpoint) round, answered by the dense rule.
        values = [0.9, 0.4, 0.6, 0.1]
        ledger = EvaluationLedger()
        got = bisect_first_meeting(
            oracle_from(values, +1), 0, 3, 0.5, ledger
        )
        assert ledger.fallbacks == 1
        assert got == 0  # dense scan: first index with value >= 0.5

    def test_late_violation_fallback_scans_original_range(self):
        # Regression: with lo=0, hi=7 the rounds sample 0, 7, then 3
        # (consistent: 0.1 <= 0.2 <= 0.8, so lo advances to 3), then 5
        # where v=0.05 < v[3] finally reveals the violation.  The dense
        # answer is index 1 (0.9, never sampled by bisection) — outside
        # the narrowed bracket [3, 7], so a fallback scanning the
        # shrunken bracket would wrongly return 6.
        values = [0.1, 0.9, 0.15, 0.2, 0.25, 0.05, 0.6, 0.8]
        ledger = EvaluationLedger()
        got = bisect_first_meeting(
            oracle_from(values, +1), 0, len(values) - 1, 0.5, ledger
        )
        assert ledger.fallbacks == 1
        assert got == 1

    def test_late_violation_last_meeting_scans_original_range(self):
        # Mirror case for the non-increasing search: rounds sample 0, 7,
        # then 3 (consistent: 0.9 >= 0.7 >= 0.1, lo advances to 3), then
        # 5 where v=0.95 > v[3] reveals the violation.  The dense rule's
        # first failing index is 1 (0.05), so the answer is 0 — outside
        # the narrowed bracket [3, 7].
        values = [0.9, 0.05, 0.8, 0.7, 0.6, 0.95, 0.3, 0.1]
        ledger = EvaluationLedger()
        got = bisect_last_meeting(
            oracle_from(values, -1), 0, len(values) - 1, 0.5, ledger
        )
        assert ledger.fallbacks == 1
        assert got == 0

    def test_empty_range_rejected(self):
        with pytest.raises(AnalysisError):
            bisect_first_meeting(
                oracle_from([0.5], +1), 1, 0, 0.5, EvaluationLedger()
            )


class TestEvaluators:
    def test_point_values_bitwise_equal_grid(self, small):
        evaluator = InProcessEvaluator()
        counts = [10, 20, 30]
        ks = [2, 3]
        grid = evaluator.grid(small, num_sensors=counts, thresholds=ks)
        points = [
            {"num_sensors": n, "threshold": k} for n in counts for k in ks
        ]
        values = evaluator.evaluate(small, points)
        assert values == list(grid.reshape(-1))

    def test_grid_charges_dense_count(self, small):
        evaluator = InProcessEvaluator()
        evaluator.grid(small, num_sensors=[10, 20], thresholds=[2, 3, 4])
        assert evaluator.ledger.evaluations == 6
        evaluator.grid(small)  # default axes: the template point
        assert evaluator.ledger.evaluations == 7

    def test_cached_evaluator_charges_only_misses(self, small):
        clear_analysis_cache()
        evaluator = CachedEvaluator()
        points = [{"threshold": k} for k in (2, 3, 2)]
        first = evaluator.evaluate(small, points)
        assert evaluator.ledger.evaluations == 2  # duplicate k=2 folded
        assert evaluator.ledger.cache_hits == 0
        second = evaluator.evaluate(small, points)
        assert second == first
        assert evaluator.ledger.evaluations == 2
        assert evaluator.ledger.cache_hits == 3

    def test_cached_matches_uncached_bitwise(self, small):
        clear_analysis_cache()
        plain = InProcessEvaluator()
        cached = CachedEvaluator()
        points = [{"num_sensors": 25}, {"threshold": 4}]
        assert cached.evaluate(small, points) == plain.evaluate(small, points)
        # Warm reads return the identical bytes.
        assert cached.evaluate(small, points) == plain.evaluate(small, points)

    def test_cached_grid_is_free_when_warm(self, small):
        clear_analysis_cache()
        evaluator = CachedEvaluator()
        first = evaluator.grid(small, thresholds=[1, 2, 3])
        spent = evaluator.ledger.evaluations
        second = evaluator.grid(small, thresholds=[1, 2, 3])
        assert evaluator.ledger.evaluations == spent
        assert np.array_equal(first, second)

    def test_budget_stops_search(self, small):
        evaluator = InProcessEvaluator(ledger=EvaluationLedger(budget=1))
        with pytest.raises(BudgetExceededError):
            adaptive_minimum_sensors(
                small, 0.5, max_sensors=64, evaluator=evaluator
            )

    def test_inner_param_conflict_rejected(self):
        # An explicit engine kwarg that disagrees with a provided inner
        # evaluator must raise, not be silently overwritten.
        inner = InProcessEvaluator(truncation=2, substeps=2)
        with pytest.raises(AnalysisError, match="truncation"):
            CachedEvaluator(inner=inner, truncation=3)
        with pytest.raises(AnalysisError, match="normalize"):
            CachedEvaluator(inner=inner, normalize=False)
        # Matching explicit kwargs are fine, and the inner evaluator's
        # parameters are adopted wholesale either way.
        cached = CachedEvaluator(inner=inner, truncation=2)
        assert cached.truncation == 2
        assert cached.substeps == 2

    def test_failed_dispatch_charges_nothing(self, small):
        # A dispatch that raises must not consume budget or inflate the
        # evaluation counters — neither on the ledger nor in obs.
        ledger = EvaluationLedger(budget=10)
        evaluator = ExplodingEvaluator(ledger=ledger)
        instrumentation = obs.Instrumentation()
        with obs.activate(instrumentation):
            with pytest.raises(RuntimeError):
                evaluator.evaluate(small, [{"threshold": 2}])
            with pytest.raises(RuntimeError):
                evaluator.grid(small, thresholds=[1, 2])
        assert ledger.evaluations == 0
        assert ledger.batches == 0
        assert ledger.remaining() == 10
        counters = instrumentation.manifest()["counters"]
        assert "adaptive.evaluations" not in counters

    def test_failed_inner_dispatch_charges_nothing_when_cached(self, small):
        clear_analysis_cache()
        cached = CachedEvaluator(inner=ExplodingEvaluator())
        with pytest.raises(RuntimeError):
            cached.evaluate(small, [{"threshold": 2}])
        assert cached.ledger.evaluations == 0
        # The failed point was never stored: a retry is a miss, not a hit.
        assert cached.ledger.cache_hits == 0

    def test_budget_still_refuses_before_dispatch(self, small):
        # The budget check runs before the batch is dispatched: an
        # unaffordable batch raises BudgetExceededError, not the
        # evaluator's own dispatch error.
        evaluator = ExplodingEvaluator(ledger=EvaluationLedger(budget=1))
        with pytest.raises(BudgetExceededError):
            evaluator.evaluate(small, [{"threshold": 1}, {"threshold": 2}])


class TestAdaptiveQueries:
    def test_minimum_sensors_matches_dense(self, small):
        evaluator = InProcessEvaluator()
        adaptive = adaptive_minimum_sensors(
            small, 0.3, max_sensors=64, evaluator=evaluator
        )
        dense = minimum_sensors(small, 0.3, max_sensors=64)
        assert adaptive == dense
        assert evaluator.ledger.evaluations <= 10
        assert evaluator.ledger.fallbacks == 0

    def test_maximum_threshold_matches_dense(self, small):
        evaluator = InProcessEvaluator()
        adaptive = adaptive_maximum_threshold(small, 0.2, evaluator=evaluator)
        dense = maximum_threshold(small, 0.2)
        assert adaptive == dense
        ceiling = small.num_sensors * (small.ms + 1)
        assert evaluator.ledger.evaluations < ceiling / 4

    def test_rule_frontier_rows_byte_identical(self, small):
        targets = [0.05, 0.2, 0.3]
        adaptive = adaptive_rule_frontier(
            small, targets, evaluator=InProcessEvaluator()
        )
        dense = dense_rule_frontier(
            small, targets, evaluator=InProcessEvaluator()
        )
        assert json.dumps(adaptive, sort_keys=True) == json.dumps(
            dense, sort_keys=True
        )

    def test_frontier_threshold_agrees_with_maximum_threshold(self, small):
        [row] = adaptive_rule_frontier(
            small, [0.2], evaluator=InProcessEvaluator()
        )
        assert row["threshold"] == maximum_threshold(small, 0.2)

    def test_design_slice_matches_dense(self, small):
        speeds = [6.0, 9.0, 12.0]
        ranges = [150.0, 200.0, 250.0, 300.0, 350.0]
        evaluator = InProcessEvaluator()
        adaptive = adaptive_design_slice(
            small, speeds, ranges, 0.3, evaluator=evaluator
        )
        dense = dense_design_slice(
            small, speeds, ranges, 0.3, evaluator=InProcessEvaluator()
        )
        assert json.dumps(adaptive, sort_keys=True) == json.dumps(
            dense, sort_keys=True
        )
        assert evaluator.ledger.evaluations < len(speeds) * len(ranges)

    def test_design_slice_rejects_unsorted_ranges(self, small):
        with pytest.raises(AnalysisError):
            adaptive_design_slice(small, [10.0], [300.0, 200.0], 0.5)

    def test_repeated_frontier_queries_hit_cache(self, small):
        # The point-level memo: a repeated multi-target frontier query on
        # a cached evaluator re-buys nothing.
        clear_analysis_cache()
        evaluator = CachedEvaluator()
        targets = [0.05, 0.2, 0.3]
        first = adaptive_rule_frontier(small, targets, evaluator=evaluator)
        spent = evaluator.ledger.evaluations
        again = adaptive_rule_frontier(small, targets, evaluator=evaluator)
        assert again == first
        assert evaluator.ledger.evaluations == spent
        assert evaluator.ledger.cache_hits >= spent

    def test_invalid_targets_rejected(self, small):
        with pytest.raises(AnalysisError):
            adaptive_minimum_sensors(small, 1.5)
        with pytest.raises(AnalysisError):
            adaptive_minimum_sensors(small, 0.5, max_sensors=0)
        with pytest.raises(AnalysisError):
            adaptive_maximum_threshold(small, 0.0)
        with pytest.raises(AnalysisError):
            adaptive_rule_frontier(small, [0.5, 1.0])


class TestFrontierCacheRouting:
    def test_second_frontier_range_adds_hits_not_misses(self, small):
        # Regression: the survival stack is memoised under grid_key with
        # k excluded, so a frontier re-query over a *different* threshold
        # range must be answered from the cached stack.
        evaluator = InProcessEvaluator(truncation=3)

        clear_analysis_cache()
        evaluator.grid(small, thresholds=list(range(1, 9)))
        before = analysis_cache().stats()
        evaluator.grid(small, thresholds=list(range(1, 13)))
        after = analysis_cache().stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
