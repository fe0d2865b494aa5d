"""Unit tests for the fused trials×grid Monte Carlo engine.

Pins the contracts ``repro.simulation.fused`` documents:

* the ``N = max(num_sensors)`` column is **bitwise** equal to a plain
  :class:`MonteCarloSimulator` run with the same ``(seed, batch_size)``;
* common random numbers make the grid *exactly* monotone per trial
  (non-decreasing in ``N``, non-increasing in ``k``);
* determinism, parallel sharding/merging, ``result_at`` views,
  validation errors, and the ``mc.*`` counters;
* :func:`simulated_grid_sweep` dispatch — fused vs per-point agreement
  at ``N_max``, ``mc.fallbacks`` on non-fusable axes, and checkpoint
  round-trips.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.errors import SimulationError
from repro.experiments.sweeps import simulated_grid_sweep
from repro.parallel import merge_fused_results
from repro.simulation import (
    FusedMonteCarloEngine,
    FusedSweepResult,
    MonteCarloSimulator,
)

TRIALS = 300
SEED = 42


@pytest.fixture
def fused_result(small):
    return FusedMonteCarloEngine(
        small,
        num_sensors=[10, 25, 50],
        thresholds=[1, 2, 4],
        trials=TRIALS,
        seed=SEED,
    ).run()


class TestFusedEngine:
    def test_axes_and_defaults(self, small):
        engine = FusedMonteCarloEngine(small, trials=TRIALS, seed=SEED)
        assert engine.num_sensors == (small.num_sensors,)
        assert engine.thresholds == (small.threshold,)
        assert engine.max_sensors == small.num_sensors
        assert engine.trials == TRIALS
        assert engine.scenario is small

    def test_grid_shapes(self, fused_result):
        assert fused_result.report_counts.shape == (TRIALS, 3)
        assert fused_result.node_counts.shape == (TRIALS, 3)
        assert fused_result.trials == TRIALS
        assert fused_result.detections_grid().shape == (3, 3)
        assert fused_result.detection_probability_grid().shape == (3, 3)

    def test_max_column_bitwise_equals_plain_simulator(self, small):
        fused = FusedMonteCarloEngine(
            small,
            num_sensors=[10, 50],
            thresholds=[2],
            trials=TRIALS,
            seed=SEED,
        ).run()
        plain = MonteCarloSimulator(
            small.replace(num_sensors=50), trials=TRIALS, seed=SEED
        ).run()
        assert (fused.report_counts[:, -1] == plain.report_counts).all()
        assert (fused.node_counts[:, -1] == plain.node_counts).all()
        k = 2
        assert fused.detections_grid()[1, 0] == int(
            np.count_nonzero(plain.report_counts >= k)
        )

    def test_exact_monotonicity_per_trial(self, fused_result):
        # A prefix deployment can only lose sensors: trial by trial, not
        # merely in expectation.
        reports = fused_result.report_counts
        nodes = fused_result.node_counts
        assert (np.diff(reports, axis=1) >= 0).all()
        assert (np.diff(nodes, axis=1) >= 0).all()
        grid = fused_result.detection_probability_grid()
        assert (np.diff(grid, axis=0) >= 0).all()  # non-decreasing in N
        assert (np.diff(grid, axis=1) <= 0).all()  # non-increasing in k

    def test_deterministic_for_seed(self, small):
        runs = [
            FusedMonteCarloEngine(
                small, num_sensors=[8, 16], trials=TRIALS, seed=7
            ).run()
            for _ in range(2)
        ]
        assert (runs[0].report_counts == runs[1].report_counts).all()
        assert (runs[0].node_counts == runs[1].node_counts).all()

    def test_batch_size_changes_stream_not_statistics(self, small):
        # As on the plain runner: batching consumes the generator in a
        # different order, so only the statistics are comparable.
        a = FusedMonteCarloEngine(
            small, num_sensors=[8, 16], trials=250, seed=9, batch_size=250
        ).run()
        b = FusedMonteCarloEngine(
            small, num_sensors=[8, 16], trials=250, seed=9, batch_size=64
        ).run()
        np.testing.assert_allclose(
            a.detection_probability_grid(),
            b.detection_probability_grid(),
            atol=0.1,
        )

    def test_parallel_matches_itself(self, small):
        a = FusedMonteCarloEngine(
            small, num_sensors=[8, 16], trials=200, seed=3, workers=2
        ).run()
        b = FusedMonteCarloEngine(
            small, num_sensors=[8, 16], trials=200, seed=3
        ).run(workers=2)
        assert (a.report_counts == b.report_counts).all()
        assert a.trials == 200

    def test_result_at_views(self, small, fused_result):
        view = fused_result.result_at(1)
        assert view.scenario.num_sensors == 25
        assert (view.report_counts == fused_result.report_counts[:, 1]).all()
        assert view.detection_probability_at(2) == pytest.approx(
            fused_result.detection_probability_grid()[1, 1]
        )
        with pytest.raises(SimulationError, match="index must be in"):
            fused_result.result_at(3)

    def test_counters(self, small):
        with obs.instrument() as ob:
            FusedMonteCarloEngine(
                small,
                num_sensors=[8, 16],
                thresholds=[1, 2, 3],
                trials=TRIALS,
                seed=SEED,
            ).run()
            counters = ob.manifest()["counters"]
        assert counters["mc.fused_runs"] == 1
        assert counters["mc.fused_trials"] == TRIALS
        assert counters["mc.fused_points"] == 6

    def test_validation_errors(self, small):
        with pytest.raises(SimulationError, match="must be integers"):
            FusedMonteCarloEngine(small, num_sensors=[10.5])
        with pytest.raises(SimulationError, match="must be integers"):
            FusedMonteCarloEngine(small, num_sensors=[True])
        with pytest.raises(SimulationError, match=">= 1"):
            FusedMonteCarloEngine(small, num_sensors=[0])
        with pytest.raises(SimulationError, match=">= 0"):
            FusedMonteCarloEngine(small, thresholds=[-1])
        with pytest.raises(SimulationError, match="non-empty"):
            FusedMonteCarloEngine(small, num_sensors=[])
        with pytest.raises(SimulationError, match="workers"):
            FusedMonteCarloEngine(small, workers=0)
        with pytest.raises(SimulationError, match="workers"):
            FusedMonteCarloEngine(small, trials=TRIALS).run(workers=1.5)
        for trials in (2.5, True, "10", float("nan")):
            with pytest.raises(SimulationError, match="trials"):
                FusedMonteCarloEngine(small, trials=trials)
        for batch_size in (2.5, True):
            with pytest.raises(SimulationError, match="batch_size"):
                FusedMonteCarloEngine(small, batch_size=batch_size)


class TestFusedSweepResult:
    def test_shape_validation(self, small):
        good = np.zeros((5, 2), dtype=np.int64)
        with pytest.raises(SimulationError, match="report/node counts"):
            FusedSweepResult(small, (10, 20), (1,), good, np.zeros((5, 3)))
        with pytest.raises(SimulationError, match="report/node counts"):
            FusedSweepResult(
                small, (10,), (1,), np.zeros((0, 1)), np.zeros((0, 1))
            )


class TestMergeFusedResults:
    def test_concatenates_in_shard_order(self, small, fused_result):
        merged = merge_fused_results([fused_result, fused_result])
        assert merged.trials == 2 * TRIALS
        assert (
            merged.report_counts
            == np.concatenate(
                [fused_result.report_counts, fused_result.report_counts]
            )
        ).all()
        assert merged.num_sensors == fused_result.num_sensors

    def test_rejects_empty_and_mismatched(self, small, fused_result):
        with pytest.raises(SimulationError):
            merge_fused_results([])
        other = FusedMonteCarloEngine(
            small, num_sensors=[10, 25], trials=50, seed=1
        ).run()
        with pytest.raises(SimulationError):
            merge_fused_results([fused_result, other])


class TestSimulatedGridSweep:
    def test_fused_rows_row_major_with_probabilities(self, small):
        rows = simulated_grid_sweep(
            small,
            {"num_sensors": [10, 30], "threshold": [1, 3]},
            trials=TRIALS,
            seed=SEED,
        )
        assert [
            (row["num_sensors"], row["threshold"]) for row in rows
        ] == [(10, 1), (10, 3), (30, 1), (30, 3)]
        for row in rows:
            assert row["trials"] == TRIALS
            assert row["detection_probability"] == row["detections"] / TRIALS

    def test_fused_matches_per_point_at_max_n(self, small):
        grids = {"num_sensors": [10, 30], "threshold": [2]}
        fused = simulated_grid_sweep(
            small, grids, trials=TRIALS, seed=SEED, fused=True
        )
        plain = simulated_grid_sweep(
            small, grids, trials=TRIALS, seed=SEED, fused=False
        )
        assert fused[-1] == plain[-1]  # the bitwise anchor at N_max

    def test_auto_falls_back_and_counts(self, small):
        with obs.instrument() as ob:
            rows = simulated_grid_sweep(
                small,
                {"detect_prob": [0.5, 0.9]},
                trials=50,
                seed=SEED,
            )
            counters = ob.manifest()["counters"]
        assert counters["mc.fallbacks"] == 2
        assert "mc.fused_runs" not in counters
        assert len(rows) == 2

    def test_checkpoint_roundtrip(self, small, tmp_path):
        path = tmp_path / "fused.json"
        grids = {"num_sensors": [10, 20], "threshold": [2]}
        first = simulated_grid_sweep(
            small, grids, trials=TRIALS, seed=SEED,
            fused=True, checkpoint=str(path),
        )
        assert json.loads(path.read_text())
        again = simulated_grid_sweep(
            small, grids, trials=TRIALS, seed=SEED,
            fused=True, checkpoint=str(path),
        )
        assert first == again
