"""Micro-benchmarks of the library's computational kernels.

Not tied to a specific paper figure; these keep the "reduces the execution
time of the analysis from many days to 1 minute" claim honest over time by
tracking the cost of each building block.
"""

import numpy as np

from benchmarks.conftest import bench_seed
from repro.cache import clear_analysis_cache
from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.multinode import MultiNodeAnalysis
from repro.core.regions import s_approach_regions
from repro.experiments.presets import onr_scenario
from repro.markov.oracle import matrix_report_count_distribution
from repro.simulation.runner import MonteCarloSimulator


def test_region_decomposition_speed(benchmark):
    scenario = onr_scenario(num_sensors=240, speed=4.0)  # ms = 9
    regions = benchmark(s_approach_regions, scenario)
    assert regions.sum() > 0


def test_ms_analysis_convolution_engine(benchmark):
    scenario = onr_scenario(num_sensors=240, speed=4.0)

    def run():
        clear_analysis_cache()
        return MarkovSpatialAnalysis(scenario, 3).report_count_distribution()

    assert benchmark(run).sum() > 0.9


def test_ms_analysis_matrix_engine(benchmark):
    """The literal Eq. 12 matrix product (the test oracle)."""
    scenario = onr_scenario(num_sensors=240, speed=4.0)
    dist = benchmark(matrix_report_count_distribution, scenario, 3)
    assert dist.sum() > 0.9


def test_exact_oracle_speed(benchmark):
    scenario = onr_scenario(num_sensors=240, speed=10.0)

    def run():
        return ExactSpatialAnalysis(scenario).detection_probability()

    assert 0.9 < benchmark(run) <= 1.0


def test_multinode_analysis_speed(benchmark):
    scenario = onr_scenario(num_sensors=240, speed=10.0)

    def run():
        return MultiNodeAnalysis(scenario, min_nodes=3).detection_probability()

    assert 0.0 < benchmark(run) < 1.0


def test_simulation_throughput(benchmark):
    """Trials per benchmark round: 512 ONR trials per call."""
    scenario = onr_scenario(num_sensors=240, speed=10.0)

    def run():
        return (
            MonteCarloSimulator(scenario, trials=512, seed=bench_seed())
            .run()
            .detection_probability
        )

    assert 0.0 <= benchmark(run) <= 1.0


def test_coverage_kernel(benchmark):
    """The simulator's inner loop on a full ONR batch."""
    from repro.simulation.sensing import segment_coverage
    from repro.simulation.targets import StraightLineTarget

    scenario = onr_scenario(num_sensors=240, speed=10.0)
    rng = np.random.default_rng(bench_seed())
    sensors = rng.uniform(0, 32_000, size=(256, 240, 2))
    starts = rng.uniform(0, 32_000, size=(256, 2))
    waypoints = StraightLineTarget(10.0).sample_waypoints(starts, 20, 60.0, rng)

    result = benchmark(
        segment_coverage,
        sensors,
        waypoints,
        scenario.sensing_range,
        scenario.field,
        True,
    )
    assert result.shape == (256, 240, 20)
