"""Perf-regression smoke gates against the committed benchmark baselines.

These tests (marker: ``bench_smoke``) load the repository's recorded
``benchmarks/results/perf-par.json`` / ``perf-cache.json`` trajectories
and fail when a quick smoke run regresses more than **3x** on the
recorded ``cpu_count=1`` serial baseline:

* per-*trial* Monte Carlo time on the PERF-PAR scenario (N=240, V=10,
  workers=1) — catches accidental de-vectorisation or per-trial dict
  churn sneaking into the hot loop (the exact failure mode the obs
  subsystem's zero-overhead contract forbids);
* per-*point* analysis time on the PERF-CACHE cold grid pass — catches a
  broken cache key silently recomputing every geometry;
* whole-grid batched time on the recorded PERF-BATCH axes — catches the
  batched kernel degrading back toward per-point cost (e.g. an
  accidentally quadratic convolution loop or a disabled grid memo);
* the PERF-KERNEL FFT-vs-reference speedup on the recorded stack shape —
  catches the ``auto`` dispatcher silently losing the FFT path (a guard
  mis-tuned to reject pmf rows, a threshold typo) as well as a slow FFT;
* whole-axis fused Monte Carlo time on the recorded PERF-MCFUSED axis —
  catches the fused engine degrading back toward per-point cost (e.g. a
  prefix cumsum replaced by a per-``N`` re-evaluation);
* the PERF-CHAOS availability ledger — the committed chaos-benchmark
  record must show the fleet meeting its >= 0.99 completion SLO with the
  eviction/restart books balanced against the injected fault count
  (catches a stale or hand-edited artifact slipping past the chaos job);
* per-*report* online detection time on the recorded PERF-STREAM load —
  catches the incremental sliding window degrading back toward the
  offline recount-the-window cost (the exact optimisation
  :class:`~repro.streaming.detector.SlidingWindowDetector` exists for) —
  plus ledger pins on the committed pipeline row (digest must have
  matched; latency percentiles must be coherent);
* the PERF-ADAPT exactness-and-cost ledger — every committed row must
  have matched the dense answer exactly, and the aggregate adaptive
  evaluation count must sit at or below the recorded 25% acceptance
  ratio (catches the adaptive tier silently degrading toward a dense
  re-scan, or a stale record claiming a win it no longer has) — plus a
  live smoke re-proving adaptive == dense ``minimum_sensors`` on this
  machine, right now.

The 3x envelope absorbs host-speed differences between the recording
machine and CI runners while still catching order-of-magnitude
regressions.  Both tests skip (not fail) when the baseline files are
absent — a fresh clone without committed results has nothing to gate on.

Run them with the smoke-bench CI job::

    python -m pytest benchmarks/bench_regression.py -m bench_smoke -q
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.cache import analysis_cache, clear_analysis_cache
from repro.core.markov_spatial import MarkovSpatialAnalysis
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


def test_per_point_analysis_time_vs_recorded_baseline():
    baseline = _load_baseline("perf-cache.json")
    cold_rows = [row for row in baseline.rows if row["grid_pass"] == 1]
    assert cold_rows, "perf-cache.json has no grid_pass=1 row"
    node_counts = baseline.parameters["node_counts"]
    thresholds = baseline.parameters["thresholds"]
    points = len(node_counts) * len(thresholds)
    baseline_per_point = cold_rows[0]["seconds"] / points

    # Warm the numpy/scipy code paths with a *different* geometry, then
    # start the timed pass against a genuinely cold cache.
    MarkovSpatialAnalysis(
        onr_scenario(num_sensors=60, speed=4.0), 3
    ).detection_probability()
    clear_analysis_cache()
    start = time.perf_counter()
    for count in node_counts:
        for threshold in thresholds:
            scenario = onr_scenario(
                num_sensors=count,
                speed=baseline.parameters["speed"],
                threshold=threshold,
            )
            MarkovSpatialAnalysis(scenario, 3).detection_probability()
    per_point = (time.perf_counter() - start) / points

    # The cold pass must still have been cache-assisted: a broken key
    # would show up as every point recomputing its geometry.
    stats = analysis_cache().stats()
    assert stats["hits"] > 0, stats

    assert per_point <= REGRESSION_FACTOR * baseline_per_point, (
        f"smoke per-point analysis time {per_point * 1e3:.3f} ms exceeds "
        f"{REGRESSION_FACTOR}x the recorded baseline "
        f"{baseline_per_point * 1e3:.3f} ms"
    )


def test_batched_grid_time_vs_recorded_baseline():
    baseline = _load_baseline("perf-batch.json")
    batched_rows = [row for row in baseline.rows if row["path"] == "batched"]
    assert batched_rows, "perf-batch.json has no batched row"
    baseline_seconds = batched_rows[0]["seconds"]
    num_sensors = baseline.parameters["num_sensors_axis"]
    thresholds = baseline.parameters["thresholds_axis"]

    from repro.core.batched import BatchedMarkovSpatialAnalysis

    scenario = onr_scenario(num_sensors=num_sensors[0], speed=10.0)
    engine = BatchedMarkovSpatialAnalysis(scenario, 3)
    # Warm-up on a different geometry, then time the recorded grid cold.
    BatchedMarkovSpatialAnalysis(
        onr_scenario(num_sensors=60, speed=4.0), 3
    ).detection_probability()
    clear_analysis_cache()
    start = time.perf_counter()
    engine.detection_probability_grid(
        num_sensors=num_sensors, thresholds=thresholds
    )
    seconds = time.perf_counter() - start

    assert seconds <= REGRESSION_FACTOR * baseline_seconds, (
        f"batched evaluation of the recorded "
        f"{len(num_sensors) * len(thresholds)}-point grid took "
        f"{seconds * 1e3:.1f} ms, exceeding {REGRESSION_FACTOR}x the "
        f"recorded baseline {baseline_seconds * 1e3:.1f} ms"
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


def test_fused_axis_time_vs_recorded_baseline():
    baseline = _load_baseline("perf-mcfused.json")
    fused_rows = [row for row in baseline.rows if row["path"] == "fused"]
    assert fused_rows, "perf-mcfused.json has no fused row"
    baseline_per_trial = fused_rows[0]["seconds"] / baseline.parameters["trials"]

    from repro.simulation.fused import FusedMonteCarloEngine

    axis = baseline.parameters["num_sensors_axis"]
    scenario = onr_scenario(
        num_sensors=axis[0],
        speed=baseline.parameters["speed"],
        threshold=baseline.parameters["threshold"],
    )
    engine = FusedMonteCarloEngine(
        scenario,
        num_sensors=axis,
        thresholds=[baseline.parameters["threshold"]],
        trials=SMOKE_TRIALS,
        seed=baseline.parameters["seed"],
    )
    engine.run()  # warm-up
    start = time.perf_counter()
    engine.run()
    per_trial = (time.perf_counter() - start) / SMOKE_TRIALS

    assert per_trial <= REGRESSION_FACTOR * baseline_per_trial, (
        f"fused per-trial time {per_trial * 1e3:.3f} ms on the recorded "
        f"{len(axis)}-point axis exceeds {REGRESSION_FACTOR}x the "
        f"recorded baseline {baseline_per_trial * 1e3:.3f} ms"
    )


def test_chaos_availability_vs_recorded_baseline():
    """Gate on the committed chaos ledger, not a re-run.

    ``bench_chaos.py`` enforces the SLO live (and CI's chaos-smoke job
    re-runs it per merge); this gate pins the *committed* PERF-CHAOS
    record so the availability claim in the repository can never drift
    below the SLO or out of balance with its own fault script.
    """
    baseline = _load_baseline("perf-chaos.json")
    slo = baseline.parameters.get("availability_slo", 0.99)
    chaos_rows = [row for row in baseline.rows if row["phase"] == "chaos"]
    assert chaos_rows, "perf-chaos.json has no chaos row"
    row = chaos_rows[0]
    assert row["availability"] >= slo, (
        f"committed chaos availability {row['availability']:.4f} is below "
        f"the recorded {slo} SLO"
    )
    assert row["completed"] >= slo * row["requests"], row
    fault_count = baseline.parameters["script"]["fault_count"]
    assert row["evictions"] == fault_count, (
        "committed chaos record's evictions do not match its fault script"
    )
    assert row["restarts"] == fault_count, (
        "committed chaos record's restarts do not match its fault script"
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


def test_stream_pipeline_ledger_vs_recorded_baseline():
    """Pin the committed PERF-STREAM pipeline row's invariants.

    ``bench_stream.py`` enforces them live (and CI's stream-smoke job
    exercises the socket path per merge); this gate keeps the committed
    artifact honest: the online == offline digest check must have
    passed and the latency percentiles must be coherent.
    """
    baseline = _load_baseline("perf-stream.json")
    pipeline_rows = [row for row in baseline.rows if row["path"] == "pipeline"]
    assert pipeline_rows, "perf-stream.json has no pipeline row"
    row = pipeline_rows[0]
    assert row["digest_match"] is True, (
        "committed stream record was produced without the online/offline "
        "digest agreeing"
    )
    assert 0.0 < row["p50_event_latency_ms"] <= row["p99_event_latency_ms"]
    assert row["reports_per_sec"] > 0.0
    total = baseline.parameters["periods"] * (
        baseline.parameters["reports_per_period"]
    )
    assert abs(
        row["reports_per_sec"] * row["seconds"] - total
    ) <= 1e-6 * total, "committed throughput does not match its own timing"


def test_adaptive_search_vs_recorded_baseline():
    """Gate the committed PERF-ADAPT record, plus a live exactness smoke.

    ``bench_adaptive.py`` enforces both live (and CI's bench-smoke job
    re-runs it per merge at smoke scale); this gate pins the *committed*
    artifact — the exactness claim in the repository can never drift:
    every recorded query must have matched its dense answer, and the
    aggregate evaluation ratio must honour the recorded acceptance
    threshold.  The live half re-proves adaptive == dense on a small
    ``minimum_sensors`` query with strictly fewer evaluations, on this
    machine, right now.
    """
    baseline = _load_baseline("perf-adapt.json")
    expected = {
        "minimum_sensors", "maximum_threshold", "rule_frontier",
        "design_slice",
    }
    recorded = {row["query"] for row in baseline.rows}
    assert recorded == expected, (
        f"perf-adapt.json must record {sorted(expected)}, "
        f"got {sorted(recorded)}"
    )
    for row in baseline.rows:
        assert row["match"] is True, (
            f"committed adaptive record's {row['query']} answer did not "
            "match the dense scan"
        )
        assert 0 < row["adaptive_evaluations"] < row["dense_evaluations"], row
    ratio_ceiling = baseline.parameters["max_evaluation_ratio"]
    dense_total = sum(row["dense_evaluations"] for row in baseline.rows)
    adaptive_total = sum(row["adaptive_evaluations"] for row in baseline.rows)
    assert adaptive_total <= ratio_ceiling * dense_total, (
        f"committed adaptive record spent {adaptive_total} of "
        f"{dense_total} dense evaluations "
        f"({adaptive_total / dense_total:.1%}), above its own recorded "
        f"{ratio_ceiling:.0%} acceptance ratio"
    )

    from repro.adaptive import InProcessEvaluator, adaptive_minimum_sensors
    from repro.core.design import minimum_sensors
    from repro.experiments.presets import small_scenario

    clear_analysis_cache()
    scenario = small_scenario()
    dense_ev = InProcessEvaluator()
    dense = minimum_sensors(
        scenario, 0.3, max_sensors=64, evaluator=dense_ev
    )
    adaptive_ev = InProcessEvaluator()
    adaptive = adaptive_minimum_sensors(
        scenario, 0.3, max_sensors=64, evaluator=adaptive_ev
    )
    assert adaptive == dense, (
        "live smoke: adaptive minimum_sensors diverged from the dense scan"
    )
    assert adaptive_ev.ledger.evaluations < dense_ev.ledger.evaluations, (
        "live smoke: adaptive search paid at least the dense cost"
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
