"""The oracle-equivalence tier: adaptive answers == dense answers.

For every pinned scenario (including a degraded-faults one) and every
evaluator backend — in-process and cached — each adaptive query must return an answer **identical** to the
dense-grid scan's (argmin-identical integers, byte-identical canonical
frontier rows), while its ledger records strictly fewer oracle
evaluations than the dense scan charges; in aggregate the matrix must
stay at or below 25% of the dense evaluation count (the acceptance
ratio ``bench_regression.py`` also gates on the committed PERF-ADAPT
record).

Dense references are computed once per scenario on the in-process
engine: dense answers are evaluator-independent by the batch-invariance
contract, which is precisely what this tier pins.
"""

import json

import pytest

from repro.adaptive import (
    CachedEvaluator,
    InProcessEvaluator,
    adaptive_maximum_threshold,
    adaptive_minimum_sensors,
    adaptive_rule_frontier,
    dense_rule_frontier,
)
from repro.cache import clear_analysis_cache
from repro.core.design import maximum_threshold, minimum_sensors
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from repro.experiments.presets import small_scenario
from repro.faults import FaultModel, degraded_scenario

MIN_SENSORS_TARGET = 0.25
MIN_SENSORS_CEILING = 64
THRESHOLD_TARGET = 0.15
FRONTIER_TARGETS = (0.05, 0.15, 0.3)

#: Acceptance ratio: aggregate adaptive evaluations per backend must not
#: exceed this fraction of the aggregate dense evaluation count.
MAX_EVALUATION_RATIO = 0.25


def _tiny() -> Scenario:
    return Scenario(
        field=SensorField.square(4_000.0),
        num_sensors=12,
        sensing_range=100.0,
        target_speed=20.0,
        sensing_period=10.0,
        detect_prob=0.8,
        window=6,
        threshold=2,
    )


SCENARIOS = {
    "baseline": small_scenario,
    "tight-rule": lambda: small_scenario(threshold=2, window=10),
    "long-range": lambda: small_scenario(sensing_range=350.0),
    "fast-target": lambda: small_scenario(target_speed=15.0),
    "tiny": _tiny,
    "degraded": lambda: degraded_scenario(
        small_scenario(),
        FaultModel(stuck_silent_frac=0.2, dropout_rate=0.1),
    ),
}

BACKENDS = ("in-process", "cached")


def make_evaluator(backend):
    if backend == "in-process":
        return InProcessEvaluator()
    return CachedEvaluator()


@pytest.fixture(scope="module")
def dense():
    """Dense answers and dense evaluation costs, once per scenario."""
    references = {}
    for name, factory in SCENARIOS.items():
        scenario = factory()
        ledger_min = InProcessEvaluator()
        answer_min = minimum_sensors(
            scenario,
            MIN_SENSORS_TARGET,
            max_sensors=MIN_SENSORS_CEILING,
            evaluator=ledger_min,
        )
        ledger_thr = InProcessEvaluator()
        answer_thr = maximum_threshold(
            scenario, THRESHOLD_TARGET, evaluator=ledger_thr
        )
        ledger_frontier = InProcessEvaluator()
        frontier = dense_rule_frontier(
            scenario, FRONTIER_TARGETS, evaluator=ledger_frontier
        )
        references[name] = {
            "scenario": scenario,
            "minimum_sensors": answer_min,
            "minimum_sensors_cost": ledger_min.ledger.evaluations,
            "maximum_threshold": answer_thr,
            "maximum_threshold_cost": ledger_thr.ledger.evaluations,
            "rule_frontier": frontier,
            "rule_frontier_cost": ledger_frontier.ledger.evaluations,
        }
    return references


@pytest.mark.parametrize("backend", BACKENDS)
def test_adaptive_matrix(dense, backend):
    clear_analysis_cache()
    spent_total = 0
    dense_total = 0
    for name, reference in dense.items():
        scenario = reference["scenario"]
        label = f"{name}/{backend}"

        evaluator = make_evaluator(backend)
        answer = adaptive_minimum_sensors(
            scenario,
            MIN_SENSORS_TARGET,
            max_sensors=MIN_SENSORS_CEILING,
            evaluator=evaluator,
        )
        spent = evaluator.ledger.evaluations
        assert answer == reference["minimum_sensors"], label
        assert spent < reference["minimum_sensors_cost"], label
        assert evaluator.ledger.fallbacks == 0, label
        spent_total += spent
        dense_total += reference["minimum_sensors_cost"]

        evaluator = make_evaluator(backend)
        answer = adaptive_maximum_threshold(
            scenario,
            THRESHOLD_TARGET,
            evaluator=evaluator,
        )
        spent = evaluator.ledger.evaluations
        assert answer == reference["maximum_threshold"], label
        assert spent < reference["maximum_threshold_cost"], label
        spent_total += spent
        dense_total += reference["maximum_threshold_cost"]

        evaluator = make_evaluator(backend)
        rows = adaptive_rule_frontier(
            scenario,
            FRONTIER_TARGETS,
            evaluator=evaluator,
        )
        spent = evaluator.ledger.evaluations
        assert json.dumps(rows, sort_keys=True) == json.dumps(
            reference["rule_frontier"], sort_keys=True
        ), label
        assert spent < reference["rule_frontier_cost"], label
        spent_total += spent
        dense_total += reference["rule_frontier_cost"]

    assert spent_total <= MAX_EVALUATION_RATIO * dense_total, (
        f"{backend}: adaptive spent {spent_total} of {dense_total} dense "
        f"evaluations ({spent_total / dense_total:.1%}), above the "
        f"{MAX_EVALUATION_RATIO:.0%} acceptance ratio"
    )


def test_cached_backend_answers_second_pass_for_free(dense):
    # The cache axis of the matrix: a warmed cached evaluator answers the
    # whole query set again without a single new oracle evaluation.
    clear_analysis_cache()
    evaluator = CachedEvaluator()
    scenario = dense["baseline"]["scenario"]

    def run_all():
        return (
            adaptive_minimum_sensors(
                scenario,
                MIN_SENSORS_TARGET,
                max_sensors=MIN_SENSORS_CEILING,
                evaluator=evaluator,
            ),
            adaptive_maximum_threshold(
                scenario, THRESHOLD_TARGET, evaluator=evaluator
            ),
            adaptive_rule_frontier(
                scenario, FRONTIER_TARGETS, evaluator=evaluator
            ),
        )

    first = run_all()
    spent = evaluator.ledger.evaluations
    second = run_all()
    assert second == first
    assert evaluator.ledger.evaluations == spent
    assert evaluator.ledger.cache_hits >= spent
