"""``offline-sweep``: design-time library calls a 2-core user would make.

A fixed, seeded job list runs in the benchmark process through the
sweep and adaptive entry points, with ``workers=2`` where a 2-core user
would pass it.  Each round of jobs holds:

* per-point geometry grids, ``analytical_grid_sweep(batch=False)``;
* batched N x k grids, ``analytical_grid_sweep`` on the batched kernel;
* fused Monte Carlo sweeps over N, ``simulated_grid_sweep``;
* adaptive design queries (``adaptive_minimum_sensors``,
  ``adaptive_rule_frontier``), each from a cold analysis cache.

The engine (``core``), ``kernels``, the analysis ``cache``, the sweep
executor, ``simulation`` and ``adaptive`` do most of their work here and
little or none in the two service workloads.  Only entry points that
survive the planned engine and executor consolidation are called: the
sweep functions, the adaptive queries and ``BatchedMarkovSpatialAnalysis``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import harness

#: Jobs per round.  A round takes ~3.4 s on a 2-core host, split about
#: evenly between analytical and Monte Carlo work.  Four cheap adaptive
#: queries sit below the eight per-point grids and six heavier jobs above
#: them, so the median job is a per-point grid.
PER_POINT_JOBS = 8
BATCHED_JOBS = 4
FUSED_JOBS = 2
MINIMUM_JOBS = 2
FRONTIER_JOBS = 2
SECONDS_PER_ROUND = 3.4
WORKERS = 2

FUSED_TRIALS = 2_500
FUSED_AXIS = list(range(60, 241, 30))
BATCHED_N_AXIS = list(range(60, 601, 2))
BATCHED_K_AXIS = list(range(1, 31))
FRONTIER_TARGETS = [0.5, 0.8, 0.9, 0.95]
#: Batched cells re-evaluated per point as the pinned exactness subset.
PINNED_CELLS = ((0, 0), (135, 4), (270, 29))


class Job:
    """One library call: ``kind``, its arguments, and what it returned."""

    def __init__(self, kind: str, scenario, **args: Any):
        self.kind = kind
        self.scenario = scenario
        self.args = args
        self.result: Any = None
        self.seconds = 0.0

    def call(self) -> Any:
        from repro import clear_analysis_cache
        from repro.adaptive import adaptive_minimum_sensors, adaptive_rule_frontier
        from repro.experiments.sweeps import analytical_grid_sweep, simulated_grid_sweep

        if self.kind == "per-point":
            return analytical_grid_sweep(self.scenario, self.args["grids"],
                                         batch=False, workers=WORKERS)
        if self.kind == "batched":
            return analytical_grid_sweep(self.scenario, self.args["grids"])
        if self.kind == "fused":
            return simulated_grid_sweep(
                self.scenario, {"num_sensors": FUSED_AXIS},
                trials=FUSED_TRIALS, seed=self.args["seed"], workers=WORKERS,
            )
        clear_analysis_cache()  # design queries start cold
        if self.kind == "minimum":
            return adaptive_minimum_sensors(self.scenario, self.args["target"])
        return adaptive_rule_frontier(self.scenario, FRONTIER_TARGETS)

    def keep(self, result: Any) -> Any:
        """The part of a result the gates check, kept small.

        Whole grids are not held for the run: the process's memory is
        part of the system under test, and forked sweep workers inherit
        it.  A per-point grid keeps its digest, a batched grid its size
        and pinned cells.
        """
        if self.kind == "per-point":
            return rows_digest(result)
        if self.kind == "batched":
            width = len(BATCHED_K_AXIS)
            return {"cells": len(result),
                    "pinned": [result[row * width + column]
                               for row, column in PINNED_CELLS]}
        return result


def make_jobs(seed: int, rounds: int) -> List[Job]:
    """The seeded job list, interleaved round by round."""
    from repro import onr_scenario

    rng = np.random.default_rng(seed)

    def geometry():
        return onr_scenario(
            speed=round(float(rng.uniform(4.0, 16.0)), 6),
            sensing_range=round(float(rng.uniform(600.0, 1200.0)), 3),
        )

    jobs: List[Job] = []
    for _ in range(rounds):
        batch: List[Job] = []
        for _ in range(PER_POINT_JOBS):
            ranges = sorted(round(float(r), 3) for r in rng.uniform(600, 1200, 4))
            speeds = sorted(round(float(v), 6) for v in rng.uniform(4, 16, 4))
            counts = sorted(int(n) for n in rng.choice(np.arange(60, 241), 3,
                                                       replace=False))
            batch.append(Job("per-point", geometry(), grids={
                "sensing_range": ranges, "target_speed": speeds,
                "num_sensors": counts}))
        for _ in range(BATCHED_JOBS):
            batch.append(Job("batched", geometry(), grids={
                "num_sensors": BATCHED_N_AXIS, "threshold": BATCHED_K_AXIS}))
        for _ in range(FUSED_JOBS):
            batch.append(Job("fused", geometry(), seed=int(rng.integers(1 << 30))))
        for _ in range(MINIMUM_JOBS):
            batch.append(Job("minimum", geometry(),
                             target=round(float(rng.uniform(0.6, 0.95)), 4)))
        for _ in range(FRONTIER_JOBS):
            batch.append(Job("frontier", geometry()))
        order = rng.permutation(len(batch))
        jobs.extend(batch[i] for i in order)
    return jobs


def run_jobs(
    jobs: List[Job],
    wrap: Optional[Callable[[Job], Any]] = None,
    between: Optional[Callable[[], None]] = None,
) -> float:
    """Run every job in order from a cold cache; returns the wall time.

    The list runs in consecutive segments; ``between`` runs after each
    segment but the last, outside the timed wall.
    """
    from repro import clear_analysis_cache

    clear_analysis_cache()
    wall = 0.0
    parts = harness.segments(jobs)
    for number, part in enumerate(parts, start=1):
        start = time.perf_counter()
        for job in part:
            begin = time.perf_counter()
            job.result = job.keep(job.call() if wrap is None else wrap(job))
            job.seconds = time.perf_counter() - begin
        wall += time.perf_counter() - start
        if between is not None and number < len(parts):
            between()
    return wall


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------


def _rows(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def rows_digest(rows) -> str:
    return hashlib.sha256(_rows(rows).encode("utf-8")).hexdigest()


def serial_digest(job: Job) -> str:
    """The same per-point grid at ``workers=1``: the executor's reference."""
    from repro.experiments.sweeps import analytical_grid_sweep

    return rows_digest(analytical_grid_sweep(
        job.scenario, job.args["grids"], batch=False, workers=1))


def verify(outcome: harness.Outcome, jobs: List[Job],
           serial: Dict[int, Any]) -> None:
    """Per-job exactness gates; a failing gate fails its job.

    ``serial`` maps the index of each per-point job to the digest of its
    ``workers=1`` rows, which the ``workers=2`` rows must equal byte for
    byte.
    """
    from repro.adaptive import dense_rule_frontier
    from repro.core.design import minimum_sensors
    from repro.experiments.sweeps import analytical_grid_sweep
    from repro.simulation.runner import MonteCarloSimulator

    runner_checked = False
    for index, job in enumerate(jobs):
        what, operation = f"job {index} ({job.kind})", [index]
        if job.kind == "per-point":
            outcome.check(job.result == serial[index],
                          f"{what}: workers={WORKERS} rows differ from serial rows",
                          operation)
        elif job.kind == "batched":
            n_axis = job.args["grids"]["num_sensors"]
            k_axis = job.args["grids"]["threshold"]
            ok = job.result["cells"] == len(n_axis) * len(k_axis)
            for (row, column), cell in zip(PINNED_CELLS, job.result["pinned"]):
                point = {"num_sensors": [n_axis[row]], "threshold": [k_axis[column]]}
                single = analytical_grid_sweep(job.scenario, point, batch=False)
                ok = ok and _rows(single[0]) == _rows(cell)
            outcome.check(ok, f"{what}: batched cells differ from per-point cells",
                          operation)
        elif job.kind == "fused":
            detections = [row["detections"] for row in job.result]
            ok = (len(detections) == len(FUSED_AXIS)
                  and all(row["trials"] == FUSED_TRIALS for row in job.result)
                  and detections == sorted(detections))  # common random numbers
            if ok and not runner_checked:
                runner_checked = True
                single = MonteCarloSimulator(
                    job.scenario.replace(num_sensors=FUSED_AXIS[-1]),
                    trials=FUSED_TRIALS, seed=job.args["seed"],
                ).run(workers=WORKERS)
                ok = single.detections == detections[-1]
            outcome.check(ok, f"{what}: fused rows are not monotone in N or "
                          "differ from the per-point simulator at max N", operation)
        elif job.kind == "minimum":
            dense = minimum_sensors(job.scenario, job.args["target"])
            outcome.check(job.result == dense,
                          f"{what}: adaptive {job.result} != dense {dense}",
                          operation)
        else:
            dense = dense_rule_frontier(job.scenario, FRONTIER_TARGETS)
            outcome.check(_rows(job.result) == _rows(dense),
                          f"{what}: adaptive frontier differs from the dense one",
                          operation)


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    outcome = harness.Outcome()
    rounds = max(1, int(round(seconds / SECONDS_PER_ROUND)))
    jobs = make_jobs(seed, rounds)
    outcome.attempted = len(jobs)

    setups = [harness.library_cold_start()]
    with harness.PeakRss(os.getpid()) as rss:
        wall = run_jobs(
            jobs,
            between=None if trace else
            lambda: setups.append(harness.library_cold_start()),
        )
    outcome.processes = rss.max_processes
    outcome.threads = rss.max_threads
    latencies = [job.seconds for job in jobs]

    if trace:
        serial = _layers(outcome, jobs, wall)
        verify(outcome, jobs, serial)
        outcome.metric("tail.p99_ms", harness.percentile(latencies, 99) * 1e3, "ms")
        return outcome

    serial = {index: serial_digest(job) for index, job in enumerate(jobs)
              if job.kind == "per-point"}
    verify(outcome, jobs, serial)
    by_kind: Dict[str, List[float]] = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job.seconds)
    outcome.notes.append(
        f"{len(jobs)} jobs in {wall:.3f} s; p50 over {len(jobs)} jobs; median "
        "ms by kind: " + ", ".join(
            f"{kind} {harness.median(times) * 1e3:.1f} (x{len(times)})"
            for kind, times in sorted(by_kind.items()))
        + f"; setup_s median of {len(setups)} cold starts"
    )
    outcome.metric("setup_s", harness.median(setups), "s")
    outcome.metric("peak_rss_mb", rss.peak_mb, "MB")
    outcome.metric("throughput_per_s", len(jobs) / wall, "1/s")
    outcome.metric("p50_ms", harness.median(latencies) * 1e3, "ms")
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _layer_patches() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for each layer entry point.

    The region functions are wrapped where both engines look them up: the
    batched engine, and the per-point engine behind the per-point grids.
    """
    import repro.core.batched as batched
    import repro.core.markov_spatial as markov_spatial
    import repro.experiments.sweeps as sweeps
    from repro.adaptive import InProcessEvaluator
    from repro.simulation.fused import FusedMonteCarloEngine

    regions = [(module, function, "regions.subareas")
               for module in (batched, markov_spatial)
               for function in ("head_subareas", "body_subareas", "tail_subareas")]
    return regions + [
        (batched, "batch_convolve", "kernels.convolve"),
        (batched, "batch_convolve_power", "kernels.convolve"),
        (batched.BatchedMarkovSpatialAnalysis, "report_count_distributions",
         "batched.distributions"),
        (InProcessEvaluator, "evaluate", "adaptive.evaluator"),
        (InProcessEvaluator, "grid", "adaptive.evaluator"),
        (FusedMonteCarloEngine, "run", "simulation.fused"),
        (sweeps, "parallel_map", "sweeps.executor"),
    ]


def _layer_spans(stack: ExitStack, tracer: harness.Tracer) -> None:
    """Wrap every layer entry point in ``tracer``'s spans until ``stack`` exits."""
    for owner, attribute, name in _layer_patches():
        stack.enter_context(harness.patched(
            owner, attribute, tracer.wrap(name, getattr(owner, attribute))))


def _traced_run(jobs: List[Job], tracer: harness.Tracer) -> Tuple[float, Dict]:
    """All jobs again, cold, with spans around each layer and obs counters.

    The per-point grids' points run in ``workers=2`` child processes,
    outside these spans; ``_layers`` times them in process instead.
    """
    from repro import analysis_cache, obs

    def traced(job: Job):
        tracer.trace = job
        with tracer.span(f"job.{job.kind}"):
            return job.call()

    instrumentation = obs.Instrumentation()
    with ExitStack() as stack:
        _layer_spans(stack, tracer)
        stack.enter_context(obs.activate(instrumentation))
        wall = run_jobs(jobs, traced)
        cache = analysis_cache().stats()
    counters = dict(instrumentation.counters)
    counters["cache.hit_rate"] = cache["hit_rate"]
    return wall, counters


def _layers(outcome: harness.Outcome, jobs: List[Job], wall: float) -> Dict[int, Any]:
    """Per-layer metrics; returns the serial rows the gates compare against."""
    from repro import clear_analysis_cache
    from repro.core.batched import BatchedMarkovSpatialAnalysis
    from repro.simulation.runner import MonteCarloSimulator

    untraced = {id(job): job.seconds for job in jobs}
    results = {id(job): job.result for job in jobs}
    tracer = harness.Tracer()
    traced_wall, counters = _traced_run(jobs, tracer)
    for job in jobs:  # the gates check the untraced pass's answers
        job.result = results[id(job)]

    # The per-point grids serially, in process with the layer spans on:
    # the executor's compute share, the region time of the per-point path
    # (which the workers=2 pass runs in child processes), and the
    # reference rows for the workers=2 exactness gate.
    serial, serial_seconds, points = {}, 0.0, 0
    serial_tracer = harness.Tracer()
    clear_analysis_cache()
    with ExitStack() as stack:
        _layer_spans(stack, serial_tracer)
        for index, job in enumerate(jobs):
            if job.kind == "per-point":
                start = time.perf_counter()
                serial[index] = serial_digest(job)
                serial_seconds += time.perf_counter() - start
                points += int(np.prod([len(axis)
                                       for axis in job.args["grids"].values()]))
    serial_region_calls, serial_regions = serial_tracer.self_times().get(
        "regions.subareas", (0, 0.0))
    per_point_wall = sum(untraced[id(job)] for job in jobs if job.kind == "per-point")

    distributions = []
    for job in jobs:
        if job.kind == "batched":
            clear_analysis_cache()
            engine = BatchedMarkovSpatialAnalysis(job.scenario)
            start = time.perf_counter()
            engine.report_count_distributions(job.args["grids"]["num_sensors"])
            distributions.append(time.perf_counter() - start)

    fused = [job for job in jobs if job.kind == "fused"]
    start = time.perf_counter()
    MonteCarloSimulator(fused[0].scenario.replace(num_sensors=FUSED_AXIS[-1]),
                        trials=FUSED_TRIALS, seed=fused[0].args["seed"]).run(
                            workers=WORKERS)
    runner_seconds = time.perf_counter() - start
    fused_seconds = harness.median([untraced[id(job)] for job in fused])

    totals = tracer.self_times()
    executor_calls, executor_self = totals.pop("sweeps.executor", (0, 0.0))
    rows = [(name, calls, seconds) for name, (calls, seconds) in sorted(totals.items())
            if not name.startswith("job.")]
    rows += [
        ("regions.subareas (per-point, serial)", serial_region_calls,
         serial_regions),
        ("sweeps.executor (serial compute, other)", points,
         serial_seconds - serial_regions),
        ("sweeps.executor (overhead)", executor_calls,
         executor_self - serial_seconds),
    ]
    job_seconds = sum(span.duration for span in tracer.spans
                      if span.name.startswith("job."))
    remainder = harness.print_layer_table("offline-sweep (traced pass)", rows,
                                          job_seconds)
    print("obs counters (in-process): " + json.dumps(
        {k: v for k, v in sorted(counters.items())
         if k.startswith(("batch.", "mc.", "adaptive.", "sweep.", "kernel.",
                          "parallel.", "cache."))}))

    adaptive_jobs = [job for job in tracer.spans
                     if job.name in ("job.minimum", "job.frontier")]
    evaluator = {}
    for span in tracer.spans:
        if span.name == "adaptive.evaluator":
            evaluator[span.trace] = evaluator.get(span.trace, 0.0) + span.duration
    search_overhead = [span.duration - evaluator.get(span.trace, 0.0)
                       for span in adaptive_jobs]

    outcome.metric("regions.subareas_ms",
                   (totals["regions.subareas"][1] + serial_regions) * 1e3, "ms")
    outcome.metric("batched.distributions_ms", harness.median(distributions) * 1e3, "ms")
    outcome.metric("kernels.convolve_ms", totals["kernels.convolve"][1] * 1e3, "ms")
    outcome.metric("cache.hit_ratio", counters["cache.hit_rate"], "ratio")
    outcome.metric("sweeps.executor_overhead_ms",
                   (per_point_wall - serial_seconds) / points * 1e3, "ms")
    outcome.metric("fused.trials_per_s", FUSED_TRIALS / fused_seconds, "1/s")
    outcome.metric("runner.trials_per_s", FUSED_TRIALS / runner_seconds, "1/s")
    outcome.metric("adaptive.evaluations", counters.get("adaptive.evaluations", 0),
                   "count")
    outcome.metric("adaptive.search_overhead_ms",
                   harness.median(search_overhead) * 1e3, "ms")
    outcome.metric("sweeps.unattributed_share", remainder, "ratio")
    outcome.metric("obs.tracing_overhead", traced_wall / wall, "ratio")
    return serial
