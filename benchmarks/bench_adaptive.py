"""PERF-ADAPT — adaptive design-space search vs the dense scans.

Answers the four design-layer queries twice on an ONR-scale scenario —
once through the dense scans in :mod:`repro.core.design` (full candidate
axes through the evaluator seam, so the ledger records the true dense
cost) and once through :mod:`repro.adaptive` — and records, per query,
the evaluation counts, wall-clock seconds, and whether the answers
matched **exactly** (integer-identical argmins, byte-identical canonical
rows via ``json.dumps(sort_keys=True)``).

The headline column is ``ratio`` (adaptive / dense *evaluations*): the
oracle evaluation count is what an evaluation budget meters, and the
adaptive tier's contract is 10-100x fewer of them for the identical
answer.  Wall-clock seconds are recorded for
context only — in-process the dense path answers whole axes from one
batched survival stack, so its *seconds* per evaluation are far cheaper
than a point-by-point search's; no timing gate is asserted here.

In-test gates (also pinned against the committed record by
``bench_regression.py``):

* every query's adaptive answer matches its dense answer exactly;
* no query fell back to a dense scan (``fallbacks == 0``);
* aggregate adaptive evaluations <= 25% of aggregate dense evaluations.

Environment knobs:

* ``REPRO_BENCH_ADAPT_SENSORS`` — scenario fleet size (default 240).
* ``REPRO_BENCH_ADAPT_MAX_SENSORS`` — ``minimum_sensors`` search ceiling
  (default 600).  CI's bench-smoke job shrinks both for speed.
"""

from __future__ import annotations

import json
import os
import time

from repro.adaptive import (
    InProcessEvaluator,
    adaptive_design_slice,
    adaptive_maximum_threshold,
    adaptive_minimum_sensors,
    adaptive_rule_frontier,
    dense_design_slice,
    dense_rule_frontier,
)
from repro.cache import clear_analysis_cache
from repro.core.design import maximum_threshold, minimum_sensors
from repro.experiments.presets import onr_scenario
from repro.experiments.records import ExperimentRecord

MIN_SENSORS_TARGET = 0.90
THRESHOLD_TARGET = 0.85
FRONTIER_TARGETS = (0.50, 0.75, 0.90)
SLICE_TARGET = 0.85
SLICE_SPEEDS = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
SLICE_RANGES = tuple(float(r) for r in range(300, 851, 50))

#: Aggregate acceptance ratio: adaptive evaluations / dense evaluations.
MAX_EVALUATION_RATIO = 0.25


def _num_sensors() -> int:
    return int(os.environ.get("REPRO_BENCH_ADAPT_SENSORS", "240"))


def _max_sensors() -> int:
    return int(os.environ.get("REPRO_BENCH_ADAPT_MAX_SENSORS", "600"))


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _bytes(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def test_adaptive_vs_dense_evaluation_counts(emit_record):
    scenario = onr_scenario(num_sensors=_num_sensors())
    max_sensors = _max_sensors()

    queries = [
        (
            "minimum_sensors",
            lambda ev: minimum_sensors(
                scenario,
                MIN_SENSORS_TARGET,
                max_sensors=max_sensors,
                evaluator=ev,
            ),
            lambda ev: adaptive_minimum_sensors(
                scenario,
                MIN_SENSORS_TARGET,
                max_sensors=max_sensors,
                evaluator=ev,
            ),
            lambda a, b: a == b,
        ),
        (
            "maximum_threshold",
            lambda ev: maximum_threshold(
                scenario, THRESHOLD_TARGET, evaluator=ev
            ),
            lambda ev: adaptive_maximum_threshold(
                scenario, THRESHOLD_TARGET, evaluator=ev
            ),
            lambda a, b: a == b,
        ),
        (
            "rule_frontier",
            lambda ev: dense_rule_frontier(
                scenario, FRONTIER_TARGETS, evaluator=ev
            ),
            lambda ev: adaptive_rule_frontier(
                scenario, FRONTIER_TARGETS, evaluator=ev
            ),
            lambda a, b: _bytes(a) == _bytes(b),
        ),
        (
            "design_slice",
            lambda ev: dense_design_slice(
                scenario, SLICE_SPEEDS, SLICE_RANGES, SLICE_TARGET,
                evaluator=ev,
            ),
            lambda ev: adaptive_design_slice(
                scenario, SLICE_SPEEDS, SLICE_RANGES, SLICE_TARGET,
                evaluator=ev,
            ),
            lambda a, b: _bytes(a) == _bytes(b),
        ),
    ]

    record = ExperimentRecord(
        experiment_id="PERF-ADAPT",
        title="Adaptive design-space search vs dense scans (exactness + cost)",
        parameters={
            "scenario": scenario.to_dict(),
            "max_sensors": max_sensors,
            "minimum_sensors_target": MIN_SENSORS_TARGET,
            "maximum_threshold_target": THRESHOLD_TARGET,
            "frontier_targets": list(FRONTIER_TARGETS),
            "slice_target": SLICE_TARGET,
            "slice_speeds": list(SLICE_SPEEDS),
            "slice_ranges": list(SLICE_RANGES),
            "max_evaluation_ratio": MAX_EVALUATION_RATIO,
        },
    )

    dense_total = 0
    adaptive_total = 0
    for name, dense_query, adaptive_query, same in queries:
        clear_analysis_cache()
        dense_ev = InProcessEvaluator()
        dense_answer, dense_seconds = _timed(lambda: dense_query(dense_ev))

        clear_analysis_cache()
        adaptive_ev = InProcessEvaluator()
        adaptive_answer, adaptive_seconds = _timed(
            lambda: adaptive_query(adaptive_ev)
        )

        dense_cost = dense_ev.ledger.evaluations
        adaptive_cost = adaptive_ev.ledger.evaluations
        match = same(dense_answer, adaptive_answer)
        assert match, (
            f"{name}: adaptive answer {adaptive_answer!r} diverged from "
            f"the dense answer {dense_answer!r}"
        )
        assert adaptive_ev.ledger.fallbacks == 0, (
            f"{name}: the model violated its claimed monotonicity on a "
            "sampled pair — the fallback kept the answer exact, but the "
            "cost claim is void"
        )
        record.add_row(
            query=name,
            dense_evaluations=dense_cost,
            adaptive_evaluations=adaptive_cost,
            ratio=adaptive_cost / dense_cost,
            dense_seconds=dense_seconds,
            adaptive_seconds=adaptive_seconds,
            match=match,
        )
        dense_total += dense_cost
        adaptive_total += adaptive_cost

    assert adaptive_total <= MAX_EVALUATION_RATIO * dense_total, (
        f"adaptive spent {adaptive_total} of {dense_total} dense "
        f"evaluations ({adaptive_total / dense_total:.1%}), above the "
        f"{MAX_EVALUATION_RATIO:.0%} acceptance ratio"
    )

    emit_record(record)
