"""Fused trials×grid Monte Carlo: one vectorised pass for a whole axis.

The paper validates every ``(N, k)`` configuration with an independent
10,000-trial run (Section 4).  :class:`repro.experiments.sweeps` made the
*analytical* side of such grids one batched kernel call; this module does
the same for the simulation side.  The trick is **common random numbers
with prefix deployments**: one trial deploys ``N_max = max(num_sensors)``
sensors and samples one target trajectory, and every smaller fleet size
``N`` is evaluated on the *first* ``N`` of those sensors — a prefix of an
i.i.d. uniform deployment is itself an i.i.d. uniform deployment, so each
column of the fused result is a valid Monte Carlo estimate at its ``N``.
The per-trial report totals for all prefixes fall out of a single
``cumsum`` over the per-sensor detection counts, and every threshold
``k`` is answered from the same totals — so an entire ``num_sensors``
× ``threshold`` grid costs one pass at ``N_max`` instead of ``P``
independent runs.

What common random numbers buy (and cost):

* **Exact per-trial monotonicity** — within one
  :class:`FusedSweepResult`, report counts are non-decreasing in ``N``
  trial by trial (a prefix can only lose sensors), so the detected
  fraction is monotone in ``N`` and in ``k`` *without* sampling noise
  between grid points; differences along the axis are estimated with
  far lower variance than independent runs give.
* **A bitwise anchor** — at the ``N = N_max`` column the fused engine
  consumes the generator in exactly the order
  :class:`~repro.simulation.runner.MonteCarloSimulator` does (deploy →
  waypoints → detections, same batch layout), so that column's per-trial
  counts are bitwise identical to a plain simulator run with the same
  ``(seed, batch_size)``.  Smaller-``N`` columns are *statistically*
  exchangeable with independent runs, not bitwise equal to them.
* **Correlated columns** — grid points share randomness, so the columns
  are not independent samples.  Per-point Wilson intervals remain valid
  marginally; joint tests across columns must account for the coupling.

Supported modelling surface: the paper's validation path — uniform
random deployment, any target/boundary mode, Bernoulli detection.
Faults, duty cycling, false alarms, communication range, heterogeneous
ranges, and custom deployments change what a "prefix subset" means (or
consume randomness per-``N``), so scenarios needing them take the
per-point :class:`~repro.simulation.runner.MonteCarloSimulator` path
(``repro.experiments.sweeps.simulated_grid_sweep`` dispatches
automatically).

Observability: each run counts ``mc.fused_runs``, ``mc.fused_trials``,
and ``mc.fused_points`` (grid points answered by the pass) into the
active instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.scenario import Scenario
from repro.errors import SimulationError
from repro.parallel import _validate_workers, run_fused_parallel
from repro.simulation.runner import MonteCarloSimulator, SimulationResult
from repro.simulation.sensing import sample_detections, segment_coverage

__all__ = ["FusedMonteCarloEngine", "FusedSweepResult"]

#: Trials per coverage/detection sub-block inside one batch.  A whole
#: 512-trial batch at N = 240, M = 20 needs ~20 MB of detection draws;
#: 64-trial blocks need ~2.5 MB, and long-lived pool workers keep their
#: high-water mark.
_SUB_BLOCK = 64


def _int_axis(values, name: str, minimum: int) -> Tuple[int, ...]:
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ):
            raise SimulationError(
                f"{name} values must be integers, got {value!r}"
            )
        if value < minimum:
            raise SimulationError(
                f"{name} values must be >= {minimum}, got {value}"
            )
        out.append(int(value))
    return tuple(out)


@dataclass(frozen=True)
class FusedSweepResult:
    """Per-trial outcomes for every grid point of one fused pass.

    Attributes:
        scenario: the template scenario (its ``num_sensors`` /
            ``threshold`` are defaults, not the evaluated axes).
        num_sensors: the evaluated ``N`` axis, in request order.
        thresholds: the evaluated ``k`` axis, in request order.
        report_counts: ``(trials, len(num_sensors))`` per-trial report
            totals — column ``i`` is the run at ``num_sensors[i]``.
        node_counts: ``(trials, len(num_sensors))`` distinct reporting
            sensors per trial.
    """

    scenario: Scenario
    num_sensors: Tuple[int, ...]
    thresholds: Tuple[int, ...]
    report_counts: np.ndarray
    node_counts: np.ndarray

    def __post_init__(self) -> None:
        reports = np.asarray(self.report_counts)
        nodes = np.asarray(self.node_counts)
        expected = (reports.shape[0], len(self.num_sensors))
        if (
            reports.ndim != 2
            or reports.shape != expected
            or nodes.shape != expected
            or reports.shape[0] == 0
        ):
            raise SimulationError(
                "report/node counts must be (trials, len(num_sensors)) "
                f"arrays, got {reports.shape} and {nodes.shape}"
            )
        object.__setattr__(self, "report_counts", reports)
        object.__setattr__(self, "node_counts", nodes)

    @property
    def trials(self) -> int:
        """Trials per grid point (every point shares all of them)."""
        return int(self.report_counts.shape[0])

    def detections_grid(self) -> np.ndarray:
        """``(len(num_sensors), len(thresholds))`` detected-trial counts."""
        ks = np.asarray(self.thresholds)[None, None, :]
        return np.count_nonzero(
            self.report_counts[:, :, None] >= ks, axis=0
        ).astype(np.int64)

    def detection_probability_grid(self) -> np.ndarray:
        """Detected fractions over the ``num_sensors x thresholds`` grid.

        Entry ``[i, j]`` estimates the same quantity as
        ``MonteCarloSimulator(scenario.replace(num_sensors=N_i,
        threshold=k_j)).run().detection_probability`` — from common
        random numbers, so the grid is exactly monotone (non-decreasing
        in ``N``, non-increasing in ``k``).
        """
        return self.detections_grid() / self.trials

    def result_at(self, index: int) -> SimulationResult:
        """One column as a per-point :class:`SimulationResult` view.

        The view's scenario carries ``num_sensors[index]``; evaluate any
        ``k`` on it via
        :meth:`SimulationResult.detection_probability_at`.  Latency and
        per-period counts are not tracked by the fused pass.
        """
        if not 0 <= index < len(self.num_sensors):
            raise SimulationError(
                f"index must be in 0..{len(self.num_sensors) - 1}, "
                f"got {index}"
            )
        return SimulationResult(
            scenario=self.scenario.replace(
                num_sensors=self.num_sensors[index]
            ),
            report_counts=self.report_counts[:, index].copy(),
            node_counts=self.node_counts[:, index].copy(),
        )


class FusedMonteCarloEngine:
    """One Monte Carlo pass answering a whole ``(N, k)`` grid.

    Args:
        scenario: template scenario; supplies the geometry, physics, and
            the default axes when ``num_sensors`` / ``thresholds`` are
            omitted.
        num_sensors: the ``N`` axis (defaults to the template's ``N``).
            The pass deploys ``max(num_sensors)`` sensors per trial and
            reads every smaller ``N`` off the deployment prefix.
        thresholds: the ``k`` axis (defaults to the template's ``k``);
            costs nothing extra — every ``k`` is answered from the same
            per-trial totals.
        trials: trials shared by every grid point.
        seed: generator seed; ``None`` draws entropy.  With the same
            ``(seed, batch_size)`` the ``N = max`` column is bitwise
            identical to a plain :class:`MonteCarloSimulator` run.
        target: trajectory model (default: the paper's straight-line
            target at the template's speed) — shared across the axis,
            which is exactly the common-random-numbers design.
        boundary: ``'torus'`` | ``'clip'`` | ``'interior'``, as on the
            plain simulator.
        batch_size: trials per vectorised block.
        workers: default process count for :meth:`run` (sharded over
            trials via :func:`repro.parallel.run_fused_parallel`).

    The fused path supports only the paper's validation surface (uniform
    deployment, no faults / duty cycling / false alarms / communication
    model) — see the module docstring; richer scenarios belong on the
    per-point simulator.

    Raises:
        SimulationError: on invalid configuration.
    """

    def __init__(
        self,
        scenario: Scenario,
        num_sensors: Optional[Sequence[int]] = None,
        thresholds: Optional[Sequence[int]] = None,
        trials: int = 10_000,
        seed: Optional[int] = None,
        target=None,
        boundary: str = "torus",
        batch_size: int = 512,
        workers: int = 1,
    ):
        if num_sensors is None:
            num_sensors = [scenario.num_sensors]
        if thresholds is None:
            thresholds = [scenario.threshold]
        self._num_sensors = _int_axis(num_sensors, "num_sensors", 1)
        self._thresholds = _int_axis(thresholds, "thresholds", 0)
        if not self._num_sensors:
            raise SimulationError("num_sensors axis must be non-empty")
        if not self._thresholds:
            raise SimulationError("thresholds axis must be non-empty")
        self._scenario = scenario
        self._trials = trials
        self._seed = seed
        self._boundary = boundary
        self._batch_size = batch_size
        self._max_sensors = max(self._num_sensors)
        # The whole modelling surface is delegated to a plain simulator
        # configured at N_max: its validation, deployment and waypoint
        # sampling are reused verbatim, which is what makes the N_max
        # column of the fused result bitwise equal to a plain run.
        self._simulator = MonteCarloSimulator(
            scenario.replace(num_sensors=self._max_sensors),
            trials=trials,
            seed=seed,
            target=target,
            boundary=boundary,
            batch_size=batch_size,
        )
        self._workers = _validate_workers(workers)

    @property
    def scenario(self) -> Scenario:
        """The template scenario."""
        return self._scenario

    @property
    def num_sensors(self) -> Tuple[int, ...]:
        """The ``N`` axis."""
        return self._num_sensors

    @property
    def thresholds(self) -> Tuple[int, ...]:
        """The ``k`` axis."""
        return self._thresholds

    @property
    def trials(self) -> int:
        """Trials shared by every grid point."""
        return self._trials

    @property
    def max_sensors(self) -> int:
        """``max(num_sensors)`` — the fleet size actually deployed."""
        return self._max_sensors

    def run(self, workers: Optional[int] = None) -> FusedSweepResult:
        """Execute the fused pass and collect per-point trial outcomes.

        Args:
            workers: overrides the constructor's ``workers``; ``N > 1``
                shards the trials across processes with the same
                ``SeedSequence`` contract as the plain simulator.
        """
        workers = _validate_workers(
            self._workers if workers is None else workers
        )
        ob = obs.current()
        if ob.enabled:
            ob.incr("mc.fused_runs")
            ob.incr("mc.fused_trials", self._trials)
            ob.incr(
                "mc.fused_points",
                len(self._num_sensors) * len(self._thresholds),
            )
        if workers > 1:
            with ob.span("sim.fused_run", mode="parallel", workers=workers):
                return run_fused_parallel(self, workers)
        with ob.span("sim.fused_run", mode="serial"):
            return self._run_serial(
                self._trials, np.random.default_rng(self._seed)
            )

    def _run_serial(
        self, trials: int, rng: np.random.Generator
    ) -> FusedSweepResult:
        """The fused trial loop over an explicit generator (one shard)."""
        scenario = self._simulator.scenario  # template at N_max
        simulator = self._simulator
        prefix_index = np.asarray(self._num_sensors, dtype=int) - 1
        points = len(self._num_sensors)
        report_counts = np.empty((trials, points), dtype=np.int64)
        node_counts = np.empty((trials, points), dtype=np.int64)
        done = 0
        while done < trials:
            batch = min(self._batch_size, trials - done)
            # Same generator consumption order as the plain runner:
            # deploy, then waypoints, then detections.
            sensors = simulator._deploy_batch(batch, rng)
            waypoints = simulator._sample_waypoints(batch, rng)
            # Coverage and detections run over sub-blocks of the batch so
            # the (trials, N, M) temporaries stay small.  The detection
            # draws are taken in trial order, so the generator yields the
            # same numbers as one whole-batch draw.
            for start in range(0, batch, _SUB_BLOCK):
                stop = min(start + _SUB_BLOCK, batch)
                coverage = segment_coverage(
                    sensors[start:stop],
                    waypoints[start:stop],
                    scenario.sensing_range,
                    field=scenario.field,
                    wrap=self._boundary == "torus",
                )
                detected = sample_detections(
                    coverage, scenario.detect_prob, rng
                )
                # (b, N_max) running totals over the deployment prefix:
                # entry [:, n - 1] is exactly what a run at fleet size n
                # would have counted from these draws.
                prefix_reports = np.cumsum(detected.sum(axis=2), axis=1)
                prefix_nodes = np.cumsum(detected.any(axis=2), axis=1)
                rows = slice(done + start, done + stop)
                report_counts[rows] = prefix_reports[:, prefix_index]
                node_counts[rows] = prefix_nodes[:, prefix_index]
            done += batch
        return FusedSweepResult(
            scenario=self._scenario,
            num_sensors=self._num_sensors,
            thresholds=self._thresholds,
            report_counts=report_counts,
            node_counts=node_counts,
        )
