"""Test oracle for :meth:`repro.simulation.runner.MonteCarloSimulator._run_serial`.

``whole_batch_runner_counts`` is the runner's trial loop with coverage and
detections evaluated over each whole batch at once, for every model the
runner splits into trial blocks: any boundary mode and target, custom
deployments, ``sensing_ranges``, ``communication_range`` and
``collect_period_counts``.  The runner evaluates them over blocks of
trials to keep its temporaries small, and must stay bitwise equal to this
loop for every batch size and trial count.  Duty cycling, faults and
false alarms run one block per batch, so they are not modelled here.

``set_block`` patches the runner's block budget so that a scenario runs
blocks of a chosen size; at the real budget a small scenario gets one
block per batch, which tests nothing.
"""

from __future__ import annotations

import numpy as np

from repro.simulation import runner
from repro.simulation.sensing import sample_detections, segment_coverage


def set_block(monkeypatch, scenario, block: int) -> None:
    """Make the runner split ``scenario``'s batches into ``block`` trials."""
    monkeypatch.setattr(
        runner, "_BLOCK_CELLS", block * scenario.num_sensors * scenario.window
    )


def whole_batch_runner_counts(simulator, trials, rng):
    """``{name: array}`` for the report, node, first-crossing and
    per-period counts of ``trials`` trials (per-period counts only when
    the simulator collects them)."""
    assert simulator._duty_cycle == 1.0
    assert simulator._faults is None
    assert simulator._false_alarm_prob == 0.0
    scenario = simulator.scenario
    report_counts = np.empty(trials, dtype=np.int64)
    node_counts = np.empty(trials, dtype=np.int64)
    detection_periods = np.zeros(trials, dtype=np.int64)
    period_counts = np.zeros((trials, scenario.window), dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(simulator._batch_size, trials - done)
        sensors = simulator._deploy_batch(batch, rng)
        waypoints = simulator._sample_waypoints(batch, rng)
        coverage = segment_coverage(
            sensors,
            waypoints,
            simulator._sensing_ranges
            if simulator._sensing_ranges is not None
            else scenario.sensing_range,
            field=scenario.field,
            wrap=simulator.boundary == "torus",
        )
        detected = sample_detections(coverage, scenario.detect_prob, rng)
        if simulator._communication_range is not None:
            detected &= simulator._connected_mask(sensors)[:, :, None]
        per_period = detected.sum(axis=1)
        rows = slice(done, done + batch)
        report_counts[rows] = per_period.sum(axis=1)
        node_counts[rows] = detected.any(axis=2).sum(axis=1)
        period_counts[rows] = per_period
        crossed = np.cumsum(per_period, axis=1) >= scenario.threshold
        first = np.argmax(crossed, axis=1) + 1
        first[~crossed.any(axis=1)] = 0
        detection_periods[rows] = first
        done += batch
    counts = {
        "report_counts": report_counts,
        "node_counts": node_counts,
        "detection_periods": detection_periods,
    }
    if simulator._collect_period_counts:
        counts["period_counts"] = period_counts
    return counts
