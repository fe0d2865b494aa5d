"""The fused loop's trial blocks: bitwise exact and small.

:meth:`FusedMonteCarloEngine._run_serial` reduces the plain runner's
blocks, which evaluate coverage and detections over trial blocks of each
batch.  These tests pin that it equals the whole-batch loop of
:mod:`tests.fused_oracles` bit for bit, across batch sizes around the
block size and trial counts that are not multiples of it, and that one
ONR-scale batch stays well below the whole-batch loop's allocation peak.
At the real block budget ``small`` runs one block per batch, so the
``small`` cases patch it to ``BLOCK``-trial blocks; the ONR cases run
the real 64-trial blocks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.experiments.presets import onr_scenario
from repro.simulation import FusedMonteCarloEngine
from tests.fused_oracles import whole_batch_fused_counts
from tests.runner_oracles import set_block

SEED = 20
BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch, small):
    set_block(monkeypatch, small, BLOCK)


def _engine(scenario, batch_size, **options):
    return FusedMonteCarloEngine(
        scenario,
        num_sensors=[1, scenario.num_sensors // 2, scenario.num_sensors],
        thresholds=[1, 3],
        trials=1,
        seed=SEED,
        batch_size=batch_size,
        **options,
    )


def _assert_bitwise(engine, trials):
    result = engine._run_serial(trials, np.random.default_rng(SEED))
    reports, nodes = whole_batch_fused_counts(
        engine, trials, np.random.default_rng(SEED)
    )
    assert result.report_counts.dtype == reports.dtype
    assert result.node_counts.dtype == nodes.dtype
    assert result.report_counts.tobytes() == reports.tobytes()
    assert result.node_counts.tobytes() == nodes.tobytes()


class TestSubBlockExactness:
    @pytest.mark.parametrize(
        "batch_size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 512]
    )
    @pytest.mark.parametrize("trials", [1, 100, 200, 517])
    def test_bitwise_equal_to_whole_batch_loop(
        self, small, small_blocks, batch_size, trials
    ):
        _assert_bitwise(_engine(small, batch_size), trials)

    @pytest.mark.parametrize("boundary", ["torus", "clip", "interior"])
    def test_every_boundary_mode(self, small, small_blocks, boundary):
        _assert_bitwise(_engine(small, 512, boundary=boundary), 300)

    def test_certain_detection_draws_nothing(self, small, small_blocks):
        _assert_bitwise(_engine(small.replace(detect_prob=1.0), 130), 300)

    def test_onr_scale(self):
        _assert_bitwise(_engine(onr_scenario(num_sensors=240), 512), 600)


def _allocation_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSubBlockMemory:
    def test_one_onr_batch_peaks_below_12_mb(self):
        """One 512 x 240 x 20 batch: the whole-batch loop's detection
        draws alone are ~20 MB; the sub-blocked loop stays under 12 MB."""
        engine = _engine(onr_scenario(num_sensors=240, window=20), 512)
        sub_blocked = _allocation_peak(
            lambda: engine._run_serial(512, np.random.default_rng(SEED))
        )
        whole_batch = _allocation_peak(
            lambda: whole_batch_fused_counts(
                engine, 512, np.random.default_rng(SEED)
            )
        )
        assert whole_batch > 12 * 2**20  # the bound discriminates
        assert sub_blocked <= 12 * 2**20
