"""The runner's trial blocks: bitwise exact, small, and per batch outside.

:meth:`MonteCarloSimulator._run_serial` evaluates coverage and detections
over blocks of ``max(1, _BLOCK_CELLS // (N * M))`` trials of each batch.
These tests pin that it equals the whole-batch loop of
:mod:`tests.runner_oracles` bit for bit, for every model that blocks,
across batch sizes around the block size and trial counts that are not
multiples of it; that the models drawing inside a block keep one block
per batch; that observability still counts batches; and that one
ONR-scale batch stays well below the whole-batch loop's allocation peak.
At the real block budget ``small`` runs one block per batch, so the
``small`` cases patch it to ``BLOCK``-trial blocks; the ONR cases run
the real 64-trial blocks.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.deployment.strategies import deploy_grid, deploy_grid_batched
from repro.experiments.presets import onr_scenario
from repro.faults import FaultModel
from repro.simulation import FusedMonteCarloEngine, MonteCarloSimulator
from repro.simulation.targets import RandomWalkTarget
from tests.runner_oracles import set_block, whole_batch_runner_counts

SEED = 21
BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch, small):
    set_block(monkeypatch, small, BLOCK)


def _simulator(scenario, batch_size=512, **options):
    return MonteCarloSimulator(
        scenario,
        trials=1,
        seed=SEED,
        batch_size=batch_size,
        collect_period_counts=True,
        **options,
    )


def _assert_bitwise(simulator, trials):
    result = simulator._run_serial(trials, np.random.default_rng(SEED))
    expected = whole_batch_runner_counts(
        simulator, trials, np.random.default_rng(SEED)
    )
    for name, array in expected.items():
        got = getattr(result, name)
        assert got.dtype == array.dtype, name
        assert got.tobytes() == array.tobytes(), name


def _block_count(simulator, trials):
    return sum(
        1 for _ in simulator._blocks(trials, np.random.default_rng(SEED))
    )


class TestBlockExactness:
    @pytest.mark.parametrize(
        "batch_size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 512]
    )
    @pytest.mark.parametrize("trials", [1, 100, 200, 517])
    def test_bitwise_equal_to_whole_batch_loop(
        self, small, small_blocks, batch_size, trials
    ):
        _assert_bitwise(_simulator(small, batch_size), trials)

    @pytest.mark.parametrize("boundary", ["torus", "clip", "interior"])
    def test_every_boundary_mode(self, small, small_blocks, boundary):
        _assert_bitwise(_simulator(small, boundary=boundary), 300)

    def test_certain_detection_draws_nothing(self, small, small_blocks):
        _assert_bitwise(_simulator(small.replace(detect_prob=1.0), 130), 300)

    def test_random_walk_target(self, small, small_blocks):
        target = RandomWalkTarget(small.target_speed, max_turn=0.5)
        _assert_bitwise(_simulator(small, target=target), 300)

    def test_communication_range(self, small, small_blocks):
        simulator = _simulator(small, communication_range=1500.0)
        _assert_bitwise(simulator, 300)

    def test_sensing_ranges(self, small, small_blocks):
        ranges = np.random.default_rng(3).uniform(
            100.0, 400.0, small.num_sensors
        )
        _assert_bitwise(_simulator(small, sensing_ranges=ranges), 300)

    def test_batched_custom_deployment(self, small, small_blocks):
        deployment = functools.partial(deploy_grid_batched, jitter=300.0)
        _assert_bitwise(_simulator(small, 200, deployment=deployment), 300)

    def test_per_trial_custom_deployment(self, small, small_blocks):
        def deployment(field, num_sensors, rng):
            return deploy_grid(field, num_sensors, jitter=300.0, rng=rng)

        _assert_bitwise(_simulator(small, 200, deployment=deployment), 300)

    def test_onr_scale(self):
        _assert_bitwise(_simulator(onr_scenario(num_sensors=240)), 600)


class TestBlockLayout:
    def test_real_budget(self, small):
        # 64 trials at N = 240, M = 20; a smaller fleet gets larger blocks.
        onr = onr_scenario(num_sensors=240)
        assert _block_count(_simulator(onr), 512) == 8
        assert _block_count(_simulator(onr.replace(num_sensors=120)), 512) == 4
        assert _block_count(_simulator(small), 1024) == 2

    def test_blocking_models_split_batches(self, small, small_blocks):
        # Batches of 200 and 100 trials: blocks 64, 64, 64, 8 and 64, 36.
        assert _block_count(_simulator(small, 200), 300) == 6
        assert _block_count(
            _simulator(small, 200, communication_range=1500.0), 300
        ) == 6

    @pytest.mark.parametrize(
        "options",
        [
            {"duty_cycle": 0.7},
            {"faults": FaultModel(dropout_rate=0.1)},
            {"faults": FaultModel(delivery_loss_prob=0.1)},
            {"false_alarm_prob": 0.01},
        ],
        ids=["duty_cycle", "node_faults", "delivery_faults", "false_alarms"],
    )
    def test_models_drawing_inside_a_block_keep_whole_batches(
        self, small, small_blocks, options
    ):
        assert _block_count(_simulator(small, 200, **options), 300) == 2

    def test_batch_events_stay_per_batch(self, small, small_blocks):
        with obs.instrument() as ob:
            MonteCarloSimulator(
                small, trials=300, seed=SEED, batch_size=200
            ).run()
        batches = [e for e in ob.events if e["name"] == "sim.batch"]
        assert [e["trials"] for e in batches] == [200, 100]
        assert [e["done"] for e in batches] == [200, 300]
        assert ob.counters["sim.batches"] == 2
        assert ob.counters["sim.trials"] == 300

    def test_fused_runs_emit_no_batch_events(self, small, small_blocks):
        with obs.instrument() as ob:
            FusedMonteCarloEngine(
                small, num_sensors=[20, 40], trials=300, seed=SEED
            ).run()
        assert not [e for e in ob.events if e["name"] == "sim.batch"]
        assert "sim.batches" not in ob.counters
        assert "sim.trials" not in ob.counters


def _allocation_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    def test_one_onr_batch_peaks_below_12_mb(self):
        """One 512 x 240 x 20 batch: the whole-batch loop's detection
        draws alone are ~20 MB; the blocked loop stays under 12 MB."""
        simulator = MonteCarloSimulator(
            onr_scenario(num_sensors=240, window=20), trials=1, seed=SEED
        )
        blocked = _allocation_peak(
            lambda: simulator._run_serial(512, np.random.default_rng(SEED))
        )
        whole_batch = _allocation_peak(
            lambda: whole_batch_runner_counts(
                simulator, 512, np.random.default_rng(SEED)
            )
        )
        assert whole_batch > 12 * 2**20  # the bound discriminates
        assert blocked <= 12 * 2**20
