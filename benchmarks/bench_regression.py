"""Perf-regression smoke gates against the committed benchmark baselines.

The repository's one perf gate is the end-to-end benchmark
(``e2ebench/``), judged by ``benchmarks/pairs.py``.  These tests
(marker: ``bench_smoke``) are the legacy gates it has not been shown to
replace: for each, a scratch copy with the regression below injected did
not read ``WORSE`` on the workload that runs the layer (CHANGES.md keeps
the pair results).  The timing gates load a recorded
``benchmarks/results/perf-*.json`` and fail when a quick smoke run
regresses more than **3x** on it:

* per-*trial* Monte Carlo time on the PERF-PAR scenario (N=240, V=10,
  workers=1) — catches accidental de-vectorisation or per-trial dict
  churn sneaking into the hot loop (the exact failure mode the obs
  subsystem's zero-overhead contract forbids);
* the PERF-KERNEL FFT-vs-reference speedup on the recorded stack shape —
  catches the ``auto`` dispatcher silently losing the FFT path (a guard
  mis-tuned to reject pmf rows, a threshold typo) as well as a slow FFT;
* per-*report* online detection time on the recorded PERF-STREAM load —
  catches the incremental sliding window degrading back toward the
  offline recount-the-window cost (the exact optimisation
  :class:`~repro.streaming.detector.SlidingWindowDetector` exists for).

One ledger pin checks a committed record, not a speed: the PERF-DIST
scaling ledger plus a live merge smoke (no end-to-end workload runs a
distributed sweep).  The PERF-ADAPT pin is retired: ``bench_adaptive.py``
asserts each of its conditions before it writes the record, and
``tests/integration/test_adaptive_matrix.py`` re-proves adaptive == dense
with fewer evaluations on every tier-1 run.

The 3x envelope absorbs host-speed differences between the recording
machine and CI runners while still catching order-of-magnitude
regressions.  Every test skips (not fails) when its baseline file is
absent — a fresh clone without committed results has nothing to gate on.

Run them with the smoke-bench CI job::

    python -m pytest benchmarks/bench_regression.py -m bench_smoke -q
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.experiments.presets import onr_scenario
from repro.experiments.records import ExperimentRecord
from repro.simulation.runner import MonteCarloSimulator

pytestmark = pytest.mark.bench_smoke

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Maximum tolerated slowdown over the committed serial baseline.
REGRESSION_FACTOR = 3.0

#: Trials for the smoke Monte Carlo — small enough for CI, large enough
#: that per-trial time is dominated by the batched arithmetic.
SMOKE_TRIALS = 1_000


def _load_baseline(name: str) -> ExperimentRecord:
    path = RESULTS_DIR / name
    if not path.exists():
        pytest.skip(f"no committed baseline at {path}")
    return ExperimentRecord.from_json(path.read_text())


def test_per_trial_time_vs_recorded_baseline():
    baseline = _load_baseline("perf-par.json")
    serial_rows = [row for row in baseline.rows if row["workers"] == 1]
    assert serial_rows, "perf-par.json has no workers=1 row"
    baseline_trials = baseline.parameters["trials"]
    baseline_per_trial = serial_rows[0]["seconds"] / baseline_trials

    scenario = onr_scenario(
        num_sensors=baseline.parameters["num_sensors"],
        speed=baseline.parameters["speed"],
    )
    simulator = MonteCarloSimulator(
        scenario, trials=SMOKE_TRIALS, seed=baseline.parameters["seed"]
    )
    simulator.run()  # warm-up: code paths, allocator, BLAS threads
    start = time.perf_counter()
    simulator.run()
    per_trial = (time.perf_counter() - start) / SMOKE_TRIALS

    assert per_trial <= REGRESSION_FACTOR * baseline_per_trial, (
        f"smoke per-trial time {per_trial * 1e3:.3f} ms exceeds "
        f"{REGRESSION_FACTOR}x the recorded cpu_count="
        f"{baseline.parameters.get('cpu_count')} baseline "
        f"{baseline_per_trial * 1e3:.3f} ms"
    )


def test_fft_kernel_speedup_vs_recorded_baseline():
    baseline = _load_baseline("perf-kernel.json")
    fft_rows = [row for row in baseline.rows if row["backend"] == "fft"]
    assert fft_rows, "perf-kernel.json has no fft row"
    recorded_speedup = fft_rows[0]["speedup"]

    import numpy as np

    from repro.core.kernels import _convolve_reference, batch_convolve

    rows = baseline.parameters["rows"]
    width = baseline.parameters["width"]
    rng = np.random.default_rng(20080617)
    raw_a = rng.random((rows, width))
    raw_b = rng.random((rows, width))
    a = raw_a / raw_a.sum(axis=1, keepdims=True)
    b = raw_b / raw_b.sum(axis=1, keepdims=True)

    def timed(kernel, repeats=10):
        kernel(a, b)
        start = time.perf_counter()
        for _ in range(repeats):
            kernel(a, b)
        return (time.perf_counter() - start) / repeats

    # The dispatcher must still take the FFT path on the recorded shape:
    # its speedup over the reference loop may shrink by the regression
    # factor but must not collapse toward 1x.
    speedup = timed(_convolve_reference) / timed(batch_convolve)
    assert speedup >= recorded_speedup / REGRESSION_FACTOR, (
        f"auto-dispatched convolution at width {width} is only "
        f"{speedup:.1f}x faster than shift-and-add; the recorded "
        f"baseline is {recorded_speedup:.1f}x "
        f"(regression envelope {REGRESSION_FACTOR}x)"
    )


def test_stream_detector_time_vs_recorded_baseline():
    baseline = _load_baseline("perf-stream.json")
    detector_rows = [
        row for row in baseline.rows if row["path"] == "detector_only"
    ]
    assert detector_rows, "perf-stream.json has no detector_only row"
    reports_per_period = baseline.parameters["reports_per_period"]
    baseline_reports = (
        baseline.parameters["periods"] * reports_per_period
    )
    baseline_per_report = detector_rows[0]["seconds"] / baseline_reports

    from benchmarks.bench_stream import _synthetic_stream
    from repro.streaming.detector import SlidingWindowDetector

    scenario = onr_scenario(
        num_sensors=baseline.parameters["num_sensors"],
        window=baseline.parameters["window"],
        threshold=baseline.parameters["threshold"],
    )
    smoke_periods = 500
    stream = _synthetic_stream(
        scenario, smoke_periods, reports_per_period,
        baseline.parameters["seed"],
    )
    SlidingWindowDetector(
        scenario.window, scenario.threshold
    ).process_stream(stream)  # warm-up
    detector = SlidingWindowDetector(scenario.window, scenario.threshold)
    start = time.perf_counter()
    detector.process_stream(stream)
    per_report = (time.perf_counter() - start) / (
        smoke_periods * reports_per_period
    )

    assert per_report <= REGRESSION_FACTOR * baseline_per_report, (
        f"smoke per-report online detection time "
        f"{per_report * 1e6:.2f} us exceeds {REGRESSION_FACTOR}x the "
        f"recorded baseline {baseline_per_report * 1e6:.2f} us"
    )


def test_distributed_scaling_vs_recorded_baseline():
    """Gate the committed PERF-DIST record, plus a live merge smoke.

    The committed record must show every distributed run merging
    byte-identically to the serial rows, and — when it was produced on
    a host with at least 4 cores — a 4-worker speedup at or above its
    own recorded scaling floor.  A 1-core container can record the
    artifact (CI's distributed-smoke job re-times it per merge); it
    just cannot assert parallelism the hardware never had, so the
    speedup gate is cpu-count guarded.

    The live half re-proves the merge contract at smoke scale: a tiny
    analytical grid through the real fleet (2 worker processes) must
    reproduce the serial bytes on this machine, right now.
    """
    baseline = _load_baseline("perf-dist.json")
    recorded_workers = sorted(row["workers"] for row in baseline.rows)
    assert recorded_workers == [1, 2, 4], (
        f"perf-dist.json must record workers 1/2/4, got {recorded_workers}"
    )
    for row in baseline.rows:
        assert row["merge_identical"] is True, (
            f"committed distributed record's workers={row['workers']} run "
            "did not merge byte-identically to the serial sweep"
        )
        assert row["seconds"] > 0.0 and row["speedup"] > 0.0, row
    recorded_cores = baseline.parameters.get("cpu_count") or 1
    floor = baseline.parameters.get("scaling_floor", 2.0)
    if recorded_cores >= 4:
        four = next(row for row in baseline.rows if row["workers"] == 4)
        assert four["speedup"] >= floor, (
            f"committed 4-worker speedup {four['speedup']:.2f}x is below "
            f"the {floor}x floor recorded on a {recorded_cores}-core host"
        )

    import json

    from repro.experiments.presets import small_scenario
    from repro.experiments.sweeps import (
        analytical_grid_sweep,
        distributed_grid_sweep,
    )

    scenario = small_scenario()
    grids = {"num_sensors": [10, 20], "threshold": [2, 3]}
    serial = analytical_grid_sweep(scenario, grids)
    distributed = distributed_grid_sweep(
        scenario, grids, workers=2, timeout=120
    )
    assert json.dumps(distributed) == json.dumps(serial), (
        "live smoke: distributed merge diverged from the serial sweep"
    )
