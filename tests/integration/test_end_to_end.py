"""End-to-end smoke tests: public API workflows a user would actually run."""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_quickstart_flow(self):
        scenario = repro.onr_scenario(num_sensors=120, speed=10.0)
        analysis = repro.MarkovSpatialAnalysis(scenario, body_truncation=3)
        p_analysis = analysis.detection_probability()
        result = repro.MonteCarloSimulator(scenario, trials=1500, seed=1).run()
        assert p_analysis == pytest.approx(result.detection_probability, abs=0.05)

    def test_all_detection_probability_engines_on_one_scenario(self):
        scenario = repro.onr_scenario(num_sensors=120)
        values = {
            "ms": repro.MarkovSpatialAnalysis(scenario).detection_probability(),
            "s": repro.SApproach(scenario, max_sensors=10).detection_probability(),
            "exact": repro.ExactSpatialAnalysis(scenario).detection_probability(),
            "multinode": repro.MultiNodeAnalysis(
                scenario, min_nodes=1
            ).detection_probability(),
        }
        reference = values.pop("exact")
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=0.01), name

    def test_deployment_to_network_pipeline(self):
        from repro.experiments.presets import ONR_COMMUNICATION_RANGE
        from repro.network.graph import build_connectivity_graph
        from repro.network.latency import delivery_report

        scenario = repro.onr_scenario(num_sensors=240)
        positions = repro.deploy_uniform(scenario.field, 240, rng=2)
        graph = build_connectivity_graph(
            positions,
            ONR_COMMUNICATION_RANGE,
            base_station=(16_000.0, 16_000.0),
        )
        report = delivery_report(graph, scenario.sensing_period, 8.0)
        assert report.connected_fraction > 0.9

    def test_errors_exported(self):
        assert issubclass(repro.ScenarioError, repro.ReproError)
        assert issubclass(repro.AnalysisError, repro.ReproError)
        with pytest.raises(repro.ScenarioError):
            repro.onr_scenario(num_sensors=-1)

    def test_version_string(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_seeded_results_are_deterministic_across_runs(self):
        scenario = repro.onr_scenario(num_sensors=60)
        a = repro.MonteCarloSimulator(scenario, trials=500, seed=42).run()
        b = repro.MonteCarloSimulator(scenario, trials=500, seed=42).run()
        np.testing.assert_array_equal(a.report_counts, b.report_counts)
