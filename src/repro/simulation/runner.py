"""Monte Carlo trial runner (the paper's simulation procedure, Section 4).

One trial = one fresh uniform deployment, one target with a random start
and heading, ``M`` sensing periods of coverage + Bernoulli(``Pd``)
detection, then the group rule "at least ``k`` reports within the window".
The paper repeats this 10,000 times per configuration and reports the
detected fraction; :class:`MonteCarloSimulator` does the same with batched
numpy arithmetic.

Boundary modes (DESIGN.md §2):

* ``'torus'`` (default) — the field wraps; matches the analysis's
  uniform-density assumption exactly.
* ``'clip'`` — the target may leave the field, losing coverage near edges.
* ``'interior'`` — starts/headings are rejection-sampled so the whole track
  stays inside the field.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.core.scenario import Scenario
from repro.errors import SimulationError
from repro.faults import FaultModel
from repro.parallel import _validate_workers, run_simulator_parallel
from repro.simulation.sensing import (
    apply_availability,
    sample_detections,
    segment_coverage,
)
from repro.simulation.stats import standard_error, wilson_interval
from repro.simulation.targets import StraightLineTarget

__all__ = ["MonteCarloSimulator", "SimulationResult"]

_BOUNDARY_MODES = ("torus", "clip", "interior")


def _deployment_is_batched(deployment) -> bool:
    """Whether a deployment callable supports the batched calling convention.

    A callable that accepts a parameter named ``batch`` is called once
    per vectorised block as ``deployment(field, num_sensors, rng,
    batch=batch)`` and must return ``(batch, num_sensors, 2)`` positions;
    any other signature falls back to the legacy one-call-per-trial loop.

    ``functools.partial`` chains and bound methods are unwrapped before
    signature inspection, so the picklable idioms parallel execution
    pushes users toward — ``partial(deploy_grid_batched, jitter=0.1)``,
    ``partial(Strategy.place, strategy)``, ``strategy.place`` — are
    recognised even when ``inspect.signature`` cannot resolve the outer
    callable, and a partial that *pre-binds* ``batch`` by keyword stays
    batched (the runner's keyword argument overrides the bound default
    instead of colliding with it positionally).
    """
    fn = deployment
    consumed_positional = 0
    while True:
        if isinstance(fn, functools.partial):
            consumed_positional += len(fn.args)
            fn = fn.func
        elif inspect.ismethod(fn):
            # Bound method: the underlying function's first parameter
            # (self) is already consumed by the binding.
            consumed_positional += 1
            fn = fn.__func__
        else:
            break
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    remaining = list(signature.parameters.values())
    # Positional pre-binding consumes leading positional parameters.
    dropped = 0
    kept = []
    for parameter in remaining:
        if dropped < consumed_positional and parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            dropped += 1
            continue
        kept.append(parameter)
    for parameter in kept:
        if parameter.name == "batch" and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a Monte Carlo run.

    Attributes:
        scenario: the simulated scenario.
        report_counts: per-trial total detection reports over the window.
        node_counts: per-trial count of distinct sensors that reported.
        false_report_counts: per-trial count of injected false reports
            (all zeros unless false alarms were enabled).
        detection_periods: per-trial first period at which the cumulative
            report count reached the scenario's threshold (0 when never);
            ``None`` when the run did not track latency.
        period_counts: ``(trials, M)`` per-period report counts, collected
            only when the simulator was asked to
            (``collect_period_counts=True``); ``None`` otherwise.
    """

    scenario: Scenario
    report_counts: np.ndarray
    node_counts: np.ndarray
    false_report_counts: np.ndarray = dataclass_field(default=None)  # type: ignore[assignment]
    detection_periods: Optional[np.ndarray] = None
    period_counts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        reports = np.asarray(self.report_counts)
        nodes = np.asarray(self.node_counts)
        if reports.shape != nodes.shape or reports.ndim != 1 or reports.size == 0:
            raise SimulationError("report/node counts must be equal-length 1-D arrays")
        object.__setattr__(self, "report_counts", reports)
        object.__setattr__(self, "node_counts", nodes)
        false_counts = self.false_report_counts
        if false_counts is None:
            false_counts = np.zeros_like(reports)
        false_counts = np.asarray(false_counts)
        if false_counts.shape != reports.shape:
            raise SimulationError("false_report_counts must match report_counts")
        object.__setattr__(self, "false_report_counts", false_counts)
        if self.detection_periods is not None:
            periods = np.asarray(self.detection_periods)
            if periods.shape != reports.shape:
                raise SimulationError("detection_periods must match report_counts")
            object.__setattr__(self, "detection_periods", periods)
        if self.period_counts is not None:
            counts = np.asarray(self.period_counts)
            if counts.shape != (reports.size, self.scenario.window):
                raise SimulationError(
                    "period_counts must have shape (trials, window), got "
                    f"{counts.shape}"
                )
            object.__setattr__(self, "period_counts", counts)

    @property
    def trials(self) -> int:
        """Number of simulated trials."""
        return int(self.report_counts.size)

    @property
    def detections(self) -> int:
        """Trials satisfying the scenario's ``>= k reports`` rule."""
        return int(np.count_nonzero(self.report_counts >= self.scenario.threshold))

    @property
    def detection_probability(self) -> float:
        """Detected fraction — the paper's simulated detection probability."""
        return self.detections / self.trials

    def detection_probability_at(
        self, threshold: Optional[int] = None, min_nodes: int = 1
    ) -> float:
        """Detected fraction under an arbitrary ``(k, h)`` rule.

        Args:
            threshold: reports required (defaults to the scenario's ``k``).
            min_nodes: distinct reporting sensors required (``h``).
        """
        k = self.scenario.threshold if threshold is None else threshold
        if k < 0 or min_nodes < 0:
            raise SimulationError("threshold and min_nodes must be non-negative")
        hits = (self.report_counts >= k) & (self.node_counts >= min_nodes)
        return float(np.count_nonzero(hits)) / self.trials

    def confidence_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Wilson interval for :attr:`detection_probability`."""
        return wilson_interval(self.detections, self.trials, confidence)

    def standard_error(self) -> float:
        """Standard error of :attr:`detection_probability`."""
        return standard_error(self.detections, self.trials)

    def report_count_histogram(self) -> np.ndarray:
        """Histogram of total report counts (index = report count)."""
        return np.bincount(self.report_counts.astype(int))

    def summary(self) -> dict:
        """JSON-serialisable summary of the run (for logs and records)."""
        low, high = self.confidence_interval()
        data = {
            "scenario": self.scenario.to_dict(),
            "trials": self.trials,
            "detections": self.detections,
            "detection_probability": self.detection_probability,
            "ci_low": low,
            "ci_high": high,
            "mean_reports": float(self.report_counts.mean()),
            "mean_reporting_nodes": float(self.node_counts.mean()),
            "false_reports_total": int(self.false_report_counts.sum()),
        }
        if self.detection_periods is not None and self.detections > 0:
            data["mean_latency_periods"] = self.mean_latency()
        return data

    def _tracked_periods(self) -> np.ndarray:
        if self.detection_periods is None:
            raise SimulationError(
                "this run did not track detection latency (construct the "
                "result via MonteCarloSimulator.run)"
            )
        return self.detection_periods

    def latency_cdf(self) -> np.ndarray:
        """Simulated ``P[T <= p]`` for ``p = 0 .. M`` (fractions of trials).

        Counterpart of
        :meth:`repro.core.latency.DetectionLatencyAnalysis.detection_cdf`.
        """
        periods = self._tracked_periods()
        # One histogram + cumulative sum; index 0 holds the never-detected
        # trials, which must not count toward any P[T <= p].
        counts = np.bincount(
            periods.astype(np.int64), minlength=self.scenario.window + 1
        )
        counts[0] = 0
        return np.cumsum(counts[: self.scenario.window + 1]) / self.trials

    def mean_latency(self) -> float:
        """Mean periods to detection among detected trials.

        Raises:
            SimulationError: if latency was not tracked or nothing was
                detected.
        """
        periods = self._tracked_periods()
        detected = periods[periods > 0]
        if detected.size == 0:
            raise SimulationError("no trial detected the target")
        return float(detected.mean())

    def sliding_window_detection_probability(
        self, window: int, threshold: Optional[int] = None
    ) -> float:
        """Detected fraction under a *sliding* k-of-window rule.

        A trial counts as detected when any ``window`` consecutive periods
        of the simulated horizon contain at least ``threshold`` reports —
        the rule a continuously-operating base station applies
        (:class:`~repro.detection.group.GroupDetector`).  Requires the run
        to have collected per-period counts.

        Raises:
            SimulationError: if period counts were not collected or the
                parameters are invalid.
        """
        if self.period_counts is None:
            raise SimulationError(
                "per-period counts were not collected; run the simulator "
                "with collect_period_counts=True"
            )
        if not 1 <= window <= self.scenario.window:
            raise SimulationError(
                f"window must be in 1..{self.scenario.window}, got {window}"
            )
        k = self.scenario.threshold if threshold is None else threshold
        if k < 1:
            raise SimulationError(f"threshold must be >= 1, got {k}")
        cumulative = np.concatenate(
            [
                np.zeros((self.trials, 1), dtype=np.int64),
                np.cumsum(self.period_counts, axis=1),
            ],
            axis=1,
        )
        window_sums = cumulative[:, window:] - cumulative[:, :-window]
        detected = (window_sums >= k).any(axis=1)
        return float(np.count_nonzero(detected)) / self.trials


class MonteCarloSimulator:
    """Batched Monte Carlo simulation of group based detection.

    Args:
        scenario: the model parameters.
        trials: number of independent trials (the paper uses 10,000).
        seed: seed for the dedicated generator; ``None`` for entropy.
        target: trajectory model; defaults to the paper's straight-line
            target at the scenario's speed.
        boundary: ``'torus'`` | ``'clip'`` | ``'interior'`` (see module
            docstring).
        batch_size: trials processed per vectorised block.
        false_alarm_prob: per-sensor per-period false report probability;
            0 reproduces the paper's validation (no false alarms).
        deployment: placement strategy — a callable
            ``(field, num_sensors, rng) -> (N, 2) positions`` (e.g.
            :func:`repro.deployment.deploy_grid` via ``functools.partial``);
            defaults to the paper's uniform random deployment.  A callable
            with a fourth parameter named ``batch`` is treated as
            *batched*: it is invoked once per vectorised block as
            ``(field, num_sensors, rng, batch)`` and must return
            ``(batch, N, 2)`` positions — one RNG round-trip per block
            instead of per trial.
        collect_period_counts: also record the ``(trials, M)`` per-period
            report counts, enabling sliding-window evaluation on the
            result (costs ``8 * trials * M`` bytes).
        communication_range: when set, model report *delivery*: a sensor's
            reports only count if the sensor has a multi-hop route (unit
            disk graph with this link radius, plain Euclidean distances)
            to the base station.  ``None`` (default) reproduces the
            paper's assumption that every report reaches the base.
        base_station: ``(x, y)`` of the base; defaults to the field center
            when ``communication_range`` is set.
        duty_cycle: per-period awake probability under random independent
            sleep scheduling; a sleeping sensor neither detects nor false
            alarms that period.  1.0 (default) keeps every sensor always
            on, the paper's setting.
        sensing_ranges: optional ``(N,)`` per-sensor sensing ranges for
            heterogeneous fleets (see
            :class:`repro.core.heterogeneous.HeterogeneousExactAnalysis`);
            overrides the scenario's uniform range.
        faults: optional :class:`repro.faults.FaultModel` injecting node
            faults (permanent death, intermittent dropout, stuck-silent
            and stuck-reporting sensors) and report-delivery faults
            (per-report loss, delayed delivery).  ``None`` — or a model
            with every rate zero, which consumes no randomness — is
            byte-identical to the fault-free path.  Stuck-reporting
            (Byzantine) sensors' reports count toward ``report_counts``
            and are tallied in ``false_report_counts``.
        progress: optional callback ``(completed_trials, total_trials)``
            invoked after every batch — for progress bars on long runs.
            In parallel mode it is invoked from the parent process as each
            worker's shard completes.
        workers: default process count for :meth:`run`.  ``1`` (default)
            is the legacy serial path, byte-identical to previous
            releases for a given seed; ``N > 1`` shards the trials across
            ``N`` processes with independent ``SeedSequence``-spawned
            streams (see :mod:`repro.parallel` for the reproducibility
            contract).

    Raises:
        SimulationError: on invalid configuration.
    """

    def __init__(
        self,
        scenario: Scenario,
        trials: int = 10_000,
        seed: Optional[int] = None,
        target=None,
        boundary: str = "torus",
        batch_size: int = 512,
        false_alarm_prob: float = 0.0,
        deployment=None,
        collect_period_counts: bool = False,
        communication_range: Optional[float] = None,
        base_station: Optional[Tuple[float, float]] = None,
        duty_cycle: float = 1.0,
        sensing_ranges: Optional[np.ndarray] = None,
        faults: Optional[FaultModel] = None,
        progress=None,
        workers: int = 1,
    ):
        if trials < 1:
            raise SimulationError(f"trials must be >= 1, got {trials}")
        self._workers = _validate_workers(workers)
        if batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
        if boundary not in _BOUNDARY_MODES:
            raise SimulationError(
                f"boundary must be one of {_BOUNDARY_MODES}, got {boundary!r}"
            )
        if not 0.0 <= false_alarm_prob < 1.0:
            raise SimulationError(
                f"false_alarm_prob must be in [0, 1), got {false_alarm_prob}"
            )
        self._scenario = scenario
        self._trials = trials
        self._seed = seed
        self._target = (
            StraightLineTarget(scenario.target_speed) if target is None else target
        )
        self._boundary = boundary
        self._batch_size = batch_size
        self._false_alarm_prob = false_alarm_prob
        if communication_range is not None and communication_range <= 0:
            raise SimulationError(
                f"communication_range must be positive, got {communication_range}"
            )
        if not 0.0 < duty_cycle <= 1.0:
            raise SimulationError(
                f"duty_cycle must be in (0, 1], got {duty_cycle}"
            )
        self._duty_cycle = duty_cycle
        if sensing_ranges is not None:
            sensing_ranges = np.asarray(sensing_ranges, dtype=float)
            if sensing_ranges.shape != (scenario.num_sensors,):
                raise SimulationError(
                    f"sensing_ranges must have shape ({scenario.num_sensors},), "
                    f"got {sensing_ranges.shape}"
                )
            if not np.isfinite(sensing_ranges).all():
                raise SimulationError("sensing_ranges must be finite")
            if (sensing_ranges <= 0).any():
                raise SimulationError("sensing_ranges must be positive")
        self._sensing_ranges = sensing_ranges
        if faults is not None and not isinstance(faults, FaultModel):
            raise SimulationError(
                f"faults must be a FaultModel or None, got {type(faults).__name__}"
            )
        # A zero-rate model draws no randomness anywhere, so treating it
        # as "no faults" keeps the fault-free path literally unchanged.
        self._faults = None if faults is None or faults.is_null else faults
        if progress is not None and not callable(progress):
            raise SimulationError("progress must be callable or None")
        self._progress = progress
        self._deployment = deployment
        self._collect_period_counts = collect_period_counts
        self._communication_range = communication_range
        if communication_range is not None and base_station is None:
            center = scenario.field.center
            base_station = (center.x, center.y)
        self._base_station = base_station

    @property
    def scenario(self) -> Scenario:
        """The simulated scenario."""
        return self._scenario

    @property
    def boundary(self) -> str:
        """The active boundary mode."""
        return self._boundary

    @property
    def faults(self) -> Optional[FaultModel]:
        """The active fault model (``None`` covers zero-rate models too)."""
        return self._faults

    def _sample_waypoints(
        self, batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        scenario = self._scenario
        field = scenario.field
        starts = rng.uniform(
            (0.0, 0.0), (field.width, field.height), size=(batch, 2)
        )
        waypoints = self._target.sample_waypoints(
            starts, scenario.window, scenario.sensing_period, rng
        )
        if self._boundary != "interior":
            return waypoints
        # Rejection-sample whole tracks that stay inside the field.
        collected = []
        remaining = batch
        attempts = 0
        candidate = waypoints
        while remaining > 0:
            inside = (
                field.contains_xy(candidate[:, :, 0], candidate[:, :, 1]).all(axis=1)
            )
            accepted = candidate[inside][:remaining]
            if accepted.size:
                collected.append(accepted)
                remaining -= accepted.shape[0]
            attempts += 1
            if attempts > 1000:
                raise SimulationError(
                    "interior boundary mode: could not place the track inside "
                    "the field after 1000 attempts (track too long for field?)"
                )
            if remaining > 0:
                starts = rng.uniform(
                    (0.0, 0.0), (field.width, field.height), size=(batch, 2)
                )
                candidate = self._target.sample_waypoints(
                    starts, scenario.window, scenario.sensing_period, rng
                )
        return np.concatenate(collected, axis=0)

    def __getstate__(self) -> dict:
        # Progress callbacks are often closures; they are parent-side state
        # (parallel shards report progress from the parent), so drop them
        # instead of failing the pickle.
        state = self.__dict__.copy()
        state["_progress"] = None
        return state

    def run(self, workers: Optional[int] = None) -> SimulationResult:
        """Execute all trials and collect per-trial report statistics.

        Args:
            workers: overrides the constructor's ``workers``.  ``1`` runs
                the legacy serial path (byte-identical for a given seed);
                ``N > 1`` fans trial shards out to ``N`` processes via
                :func:`repro.parallel.run_simulator_parallel`.
        """
        workers = _validate_workers(
            self._workers if workers is None else workers
        )
        ob = obs.current()
        if ob.enabled:
            ob.set_run_info(
                scenario_fingerprint=obs.scenario_fingerprint(self._scenario),
                seed=self._seed,
                workers=workers,
                trials=self._trials,
            )
        if workers > 1:
            with ob.span("sim.run", mode="parallel", workers=workers):
                return run_simulator_parallel(self, workers)
        with ob.span("sim.run", mode="serial"):
            return self._run_serial(
                self._trials, np.random.default_rng(self._seed)
            )

    def _run_serial(
        self, trials: int, rng: np.random.Generator
    ) -> SimulationResult:
        """The serial trial loop over an explicit generator (one shard)."""
        scenario = self._scenario
        report_counts = np.empty(trials, dtype=np.int64)
        node_counts = np.empty(trials, dtype=np.int64)
        false_counts = np.zeros(trials, dtype=np.int64)
        detection_periods = np.zeros(trials, dtype=np.int64)
        period_counts = (
            np.zeros((trials, scenario.window), dtype=np.int64)
            if self._collect_period_counts
            else None
        )

        # Observability: when instrumentation is active, each vectorised
        # batch reports its trial throughput.  Disabled (the default) the
        # single `measure` check per batch is the entire cost — the trial
        # arithmetic and the RNG stream are untouched either way
        # (fingerprint-pinned by tests/unit/test_obs.py).
        ob = obs.current()
        measure = ob.enabled
        done = 0
        while done < trials:
            if measure:
                batch_start = time.perf_counter()
            batch = min(self._batch_size, trials - done)
            sensors = self._deploy_batch(batch, rng)
            waypoints = self._sample_waypoints(batch, rng)
            coverage = segment_coverage(
                sensors,
                waypoints,
                self._sensing_ranges
                if self._sensing_ranges is not None
                else scenario.sensing_range,
                field=scenario.field,
                wrap=self._boundary == "torus",
            )
            awake = None
            if self._duty_cycle < 1.0:
                awake = rng.random(coverage.shape) < self._duty_cycle
                coverage = apply_availability(coverage, awake)
            masks = None
            if self._faults is not None and self._faults.has_node_faults:
                masks = self._faults.sample_node_masks(
                    batch, scenario.num_sensors, scenario.window, rng
                )
                if masks.available is not None:
                    coverage = apply_availability(coverage, masks.available)
            detected = sample_detections(coverage, scenario.detect_prob, rng)
            reachable = None
            if self._communication_range is not None:
                reachable = self._connected_mask(sensors)
                detected &= reachable[:, :, None]
            spurious = None
            if masks is not None and masks.byzantine is not None:
                # Stuck-reporting sensors transmit every period they are
                # alive (and routed); all their reports are spurious.
                byz_reports = np.broadcast_to(
                    masks.byzantine[:, :, None], detected.shape
                ).copy()
                if masks.alive is not None:
                    byz_reports &= masks.alive
                if reachable is not None:
                    byz_reports &= reachable[:, :, None]
                detected |= byz_reports
                spurious = byz_reports
            if self._false_alarm_prob > 0.0:
                false_hits = rng.random(detected.shape) < self._false_alarm_prob
                false_hits &= ~detected
                if reachable is not None:
                    # Undeliverable false reports never reach the base either.
                    false_hits &= reachable[:, :, None]
                if awake is not None:
                    # Sleeping sensors cannot false alarm.
                    false_hits &= awake
                if masks is not None and masks.available is not None:
                    # Neither can dead, dropped-out, or stuck sensors.
                    false_hits &= masks.available
                detected |= false_hits
                spurious = (
                    false_hits if spurious is None else spurious | false_hits
                )
            late = spurious_late = None
            if self._faults is not None and self._faults.has_delivery_faults:
                detected, late, spurious, spurious_late = (
                    self._faults.apply_delivery(detected, spurious, rng)
                )
            per_period = detected.sum(axis=1)
            delivered_any = detected
            if late is not None:
                # Delayed reports land in later periods; both an on-time
                # and a late report can arrive in the same (sensor, period).
                per_period = per_period + late.sum(axis=1)
                delivered_any = detected | late
            if spurious is not None:
                total_spurious = spurious.sum(axis=(1, 2))
                if spurious_late is not None:
                    total_spurious = total_spurious + spurious_late.sum(
                        axis=(1, 2)
                    )
                false_counts[done : done + batch] = total_spurious
            report_counts[done : done + batch] = per_period.sum(axis=1)
            node_counts[done : done + batch] = (
                delivered_any.any(axis=2).sum(axis=1)
            )
            # First period at which the running report total reaches k.
            if period_counts is not None:
                period_counts[done : done + batch] = per_period
            cumulative = np.cumsum(per_period, axis=1)
            crossed = cumulative >= scenario.threshold
            first = np.argmax(crossed, axis=1) + 1
            first[~crossed.any(axis=1)] = 0
            detection_periods[done : done + batch] = first
            done += batch
            if measure:
                seconds = time.perf_counter() - batch_start
                ob.incr("sim.trials", batch)
                ob.incr("sim.batches")
                ob.event(
                    "sim.batch",
                    trials=batch,
                    done=done,
                    seconds=seconds,
                    trials_per_sec=(batch / seconds) if seconds > 0 else None,
                )
            if self._progress is not None:
                self._progress(done, trials)

        return SimulationResult(
            scenario=scenario,
            report_counts=report_counts,
            node_counts=node_counts,
            false_report_counts=false_counts,
            detection_periods=detection_periods,
            period_counts=period_counts,
        )

    def _connected_mask(self, sensors: np.ndarray) -> np.ndarray:
        """Which sensors have a multi-hop route to the base station.

        The whole batch is solved with a single ``connected_components``
        call on one block-diagonal sparse graph (one ``(N + 1)``-node block
        per trial, the base station appended as node ``N``), instead of the
        former ``O(batch * N^2)`` Python loop of per-trial csgraph calls.
        Adjacency is computed in bounded-size chunks so peak memory stays
        flat regardless of ``batch_size``.

        Args:
            sensors: ``(B, N, 2)`` positions.

        Returns:
            Boolean ``(B, N)`` array.
        """
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        batch, count, _ = sensors.shape
        nodes = count + 1
        base = np.asarray(self._base_station, dtype=float)
        range_sq = self._communication_range**2
        points = np.concatenate(
            [sensors, np.broadcast_to(base, (batch, 1, 2))], axis=1
        )  # (B, N + 1, 2)

        rows: list = []
        cols: list = []
        # ~8M pairwise entries per chunk keeps the dense distance block
        # around 64 MB however large the trial batch is.
        chunk = max(1, 8_000_000 // (nodes * nodes))
        for start in range(0, batch, chunk):
            block = points[start : start + chunk]
            dx = block[..., 0][:, :, None] - block[..., 0][:, None, :]
            dy = block[..., 1][:, :, None] - block[..., 1][:, None, :]
            adjacent = dx * dx + dy * dy <= range_sq
            trial, i, j = np.nonzero(adjacent)
            offset = (start + trial) * nodes
            rows.append(offset + i)
            cols.append(offset + j)
        row_idx = np.concatenate(rows)
        col_idx = np.concatenate(cols)
        size = batch * nodes
        graph = csr_matrix(
            (np.ones(row_idx.size, dtype=np.int8), (row_idx, col_idx)),
            shape=(size, size),
        )
        # Self-loops (the diagonal) are harmless for connectivity.
        _, labels = connected_components(graph, directed=False)
        labels = labels.reshape(batch, nodes)
        return labels[:, :count] == labels[:, count:]

    def _deploy_batch(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        scenario = self._scenario
        if self._deployment is None:
            return rng.uniform(
                (0.0, 0.0),
                (scenario.field.width, scenario.field.height),
                size=(batch, scenario.num_sensors, 2),
            )
        if _deployment_is_batched(self._deployment):
            # `batch` goes by keyword: it overrides a partial's pre-bound
            # value and reaches keyword-only parameters, neither of which
            # a positional fourth argument can do.
            positions = np.asarray(
                self._deployment(
                    scenario.field, scenario.num_sensors, rng, batch=batch
                ),
                dtype=float,
            )
            if positions.shape != (batch, scenario.num_sensors, 2):
                raise SimulationError(
                    f"batched deployment callable returned shape "
                    f"{positions.shape}, expected "
                    f"({batch}, {scenario.num_sensors}, 2)"
                )
            return positions
        deployments = []
        for _ in range(batch):
            positions = np.asarray(
                self._deployment(scenario.field, scenario.num_sensors, rng),
                dtype=float,
            )
            if positions.shape != (scenario.num_sensors, 2):
                raise SimulationError(
                    f"deployment callable returned shape {positions.shape}, "
                    f"expected ({scenario.num_sensors}, 2)"
                )
            deployments.append(positions)
        return np.stack(deployments)
