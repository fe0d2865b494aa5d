"""Unit tests for repro.core.heterogeneous."""

import numpy as np
import pytest

from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.heterogeneous import HeterogeneousExactAnalysis, SensorClass
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario


class TestSensorClass:
    def test_valid(self):
        cls = SensorClass(10, 500.0)
        assert cls.count == 10

    def test_invalid_rejected(self):
        with pytest.raises(AnalysisError):
            SensorClass(-1, 500.0)
        with pytest.raises(AnalysisError):
            SensorClass(5, 0.0)


class TestHeterogeneousExactAnalysis:
    def test_homogeneous_matches_exact_oracle(self, onr):
        mixture = HeterogeneousExactAnalysis(
            onr, [SensorClass(onr.num_sensors, onr.sensing_range)]
        )
        reference = ExactSpatialAnalysis(onr)
        np.testing.assert_allclose(
            mixture.report_count_pmf(),
            reference.report_count_pmf(),
            atol=1e-12,
        )

    def test_splitting_one_class_changes_nothing(self, onr):
        single = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 1000.0)]
        ).detection_probability()
        split = HeterogeneousExactAnalysis(
            onr, [SensorClass(100, 1000.0), SensorClass(140, 1000.0)]
        ).detection_probability()
        assert split == pytest.approx(single, abs=1e-12)

    def test_pmf_is_distribution(self, onr):
        mixture = HeterogeneousExactAnalysis(
            onr, [SensorClass(120, 1300.0), SensorClass(120, 700.0)]
        )
        pmf = mixture.report_count_pmf()
        assert (pmf >= -1e-12).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-8)

    def test_longer_ranges_detect_more(self, onr):
        short = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 800.0)]
        ).detection_probability()
        long = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 1200.0)]
        ).detection_probability()
        assert long > short

    def test_range_diversity_helps_at_fixed_mean(self, onr):
        uniform = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 1000.0)]
        ).detection_probability()
        diverse = HeterogeneousExactAnalysis(
            onr, [SensorClass(120, 1400.0), SensorClass(120, 600.0)]
        ).detection_probability()
        assert diverse > uniform

    def test_zero_count_class_ignored(self, onr):
        with_empty = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 1000.0), SensorClass(0, 200.0)]
        ).detection_probability()
        without = HeterogeneousExactAnalysis(
            onr, [SensorClass(240, 1000.0)]
        ).detection_probability()
        assert with_empty == pytest.approx(without, abs=1e-12)

    def test_sensing_ranges_array(self, onr):
        mixture = HeterogeneousExactAnalysis(
            onr, [SensorClass(100, 1300.0), SensorClass(140, 700.0)]
        )
        ranges = mixture.sensing_ranges()
        assert ranges.shape == (240,)
        assert (ranges[:100] == 1300.0).all()
        assert (ranges[100:] == 700.0).all()

    def test_expected_reports_additive(self, onr):
        mixture = HeterogeneousExactAnalysis(
            onr, [SensorClass(120, 1300.0), SensorClass(120, 700.0)]
        )
        separate = sum(
            ExactSpatialAnalysis(
                onr.replace(num_sensors=120, sensing_range=rs)
            ).expected_report_count()
            for rs in (1300.0, 700.0)
        )
        assert mixture.expected_report_count() == pytest.approx(separate, rel=1e-9)

    def test_count_mismatch_rejected(self, onr):
        with pytest.raises(AnalysisError):
            HeterogeneousExactAnalysis(onr, [SensorClass(100, 1000.0)])

    def test_empty_classes_rejected(self, onr):
        with pytest.raises(AnalysisError):
            HeterogeneousExactAnalysis(onr, [])

    def test_negative_threshold_rejected(self, onr):
        mixture = HeterogeneousExactAnalysis(onr, [SensorClass(240, 1000.0)])
        with pytest.raises(AnalysisError):
            mixture.detection_probability(threshold=-1)


class TestHeterogeneousSimulation:
    def test_mixed_fleet_analysis_matches_simulation(self, small):
        from repro.simulation.runner import MonteCarloSimulator

        classes = [
            SensorClass(small.num_sensors // 2, small.sensing_range * 1.4),
            SensorClass(
                small.num_sensors - small.num_sensors // 2,
                small.sensing_range * 0.6,
            ),
        ]
        mixture = HeterogeneousExactAnalysis(small, classes)
        result = MonteCarloSimulator(
            small,
            trials=8000,
            seed=13,
            sensing_ranges=mixture.sensing_ranges(),
        ).run()
        assert mixture.detection_probability() == pytest.approx(
            result.detection_probability, abs=0.02
        )

    def test_invalid_sensing_ranges_rejected(self, small):
        from repro.errors import SimulationError
        from repro.simulation.runner import MonteCarloSimulator

        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, sensing_ranges=np.ones(3))
        with pytest.raises(SimulationError):
            MonteCarloSimulator(
                small, sensing_ranges=np.zeros(small.num_sensors)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sensing_ranges_rejected(self, small, bad):
        from repro.errors import SimulationError
        from repro.simulation.runner import MonteCarloSimulator

        ranges = np.full(small.num_sensors, small.sensing_range)
        ranges[1] = bad
        with pytest.raises(SimulationError, match="finite"):
            MonteCarloSimulator(small, sensing_ranges=ranges)
