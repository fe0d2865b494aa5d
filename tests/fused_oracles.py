"""Test oracle for :meth:`repro.simulation.fused.FusedMonteCarloEngine._run_serial`.

``whole_batch_fused_counts`` is the fused trial loop with coverage and
detections evaluated over each whole batch at once.  The engine reduces
the plain runner's trial blocks, which keep its temporaries small, and
must stay bitwise equal to this loop for every batch size and trial
count.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.sensing import sample_detections, segment_coverage


def whole_batch_fused_counts(engine, trials, rng):
    """``(report_counts, node_counts)``, each ``(trials, len(num_sensors))``."""
    simulator = engine._simulator
    scenario = simulator.scenario
    prefix_index = np.asarray(engine.num_sensors, dtype=int) - 1
    points = len(engine.num_sensors)
    report_counts = np.empty((trials, points), dtype=np.int64)
    node_counts = np.empty((trials, points), dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(engine._batch_size, trials - done)
        sensors = simulator._deploy_batch(batch, rng)
        waypoints = simulator._sample_waypoints(batch, rng)
        coverage = segment_coverage(
            sensors,
            waypoints,
            scenario.sensing_range,
            field=scenario.field,
            wrap=engine._boundary == "torus",
        )
        detected = sample_detections(coverage, scenario.detect_prob, rng)
        prefix_reports = np.cumsum(detected.sum(axis=2), axis=1)
        prefix_nodes = np.cumsum(detected.any(axis=2), axis=1)
        report_counts[done : done + batch] = prefix_reports[:, prefix_index]
        node_counts[done : done + batch] = prefix_nodes[:, prefix_index]
        done += batch
    return report_counts, node_counts
