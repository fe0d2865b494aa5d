"""PERF-PAR — parallel Monte Carlo wall-clock.

Times the ONR Monte Carlo serially and at 2 and ``REPRO_BENCH_WORKERS``
(default 4) worker processes, recording wall-clock seconds, speedup, and
the detection estimate of each run.  The record states the core count so
the committed numbers are interpretable; its ``workers=1`` row is the
baseline of ``bench_regression.py``'s per-trial gate.  No speedup is
asserted: a pool that loses its parallelism reads ``WORSE`` on the
end-to-end offline-sweep workload (CHANGES.md keeps the pair result).

Expected shape: parallel estimates land inside the serial run's Wilson
interval (independent SeedSequence streams, same distribution).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import bench_seed, bench_trials
from repro.experiments.presets import onr_scenario
from repro.experiments.records import ExperimentRecord
from repro.parallel import available_workers
from repro.simulation.runner import MonteCarloSimulator


def bench_workers() -> int:
    """Largest worker count timed by the speedup benchmark."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def _timed_run(scenario, trials, seed, workers):
    simulator = MonteCarloSimulator(scenario, trials=trials, seed=seed)
    start = time.perf_counter()
    result = simulator.run(workers=workers)
    return time.perf_counter() - start, result


def test_parallel_speedup(emit_record):
    trials = bench_trials()
    seed = bench_seed()
    cores = available_workers()
    scenario = onr_scenario(num_sensors=240, speed=10.0)
    record = ExperimentRecord(
        experiment_id="PERF-PAR",
        title="Monte Carlo wall-clock: serial vs process-pool workers",
        parameters={
            "num_sensors": 240,
            "speed": 10.0,
            "trials": trials,
            "seed": seed,
            "cpu_count": cores,
        },
    )

    serial_seconds, serial = _timed_run(scenario, trials, seed, workers=1)
    record.add_row(
        workers=1,
        seconds=serial_seconds,
        speedup=1.0,
        detection_probability=serial.detection_probability,
    )
    low, high = serial.confidence_interval(confidence=0.999)

    for workers in sorted({2, bench_workers()} - {1}):
        seconds, result = _timed_run(scenario, trials, seed, workers=workers)
        record.add_row(
            workers=workers,
            seconds=seconds,
            speedup=serial_seconds / seconds,
            detection_probability=result.detection_probability,
        )
        # Different — equally valid — trial streams: the estimate must
        # stay statistically compatible with the serial run.
        margin = 2.0 * serial.standard_error()
        assert low - margin <= result.detection_probability <= high + margin, (
            workers,
            result.detection_probability,
            (low, high),
        )

    emit_record(record)
