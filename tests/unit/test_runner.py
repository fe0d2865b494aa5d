"""Unit tests for repro.simulation.runner."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.runner import MonteCarloSimulator, SimulationResult
from repro.simulation.targets import RandomWalkTarget


class TestSimulationResult:
    def test_detection_probability(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([0, 2, 3, 5, 9]),
            node_counts=np.array([0, 1, 2, 3, 4]),
        )
        # threshold is 3 -> trials with >= 3 reports: three of five.
        assert result.detections == 3
        assert result.detection_probability == pytest.approx(0.6)

    def test_detection_probability_at_custom_rule(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([0, 2, 3, 5, 9]),
            node_counts=np.array([0, 1, 2, 3, 4]),
        )
        assert result.detection_probability_at(threshold=5) == pytest.approx(0.4)
        assert result.detection_probability_at(
            threshold=3, min_nodes=3
        ) == pytest.approx(0.4)

    def test_histogram(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([0, 0, 2, 2, 2]),
            node_counts=np.zeros(5),
        )
        np.testing.assert_array_equal(
            result.report_count_histogram(), [2, 0, 3]
        )

    def test_default_false_reports_zero(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([1, 2]),
            node_counts=np.array([1, 1]),
        )
        np.testing.assert_array_equal(result.false_report_counts, [0, 0])

    def test_shape_mismatch_rejected(self, small):
        with pytest.raises(SimulationError):
            SimulationResult(
                scenario=small,
                report_counts=np.array([1, 2]),
                node_counts=np.array([1]),
            )

    def test_empty_rejected(self, small):
        with pytest.raises(SimulationError):
            SimulationResult(
                scenario=small,
                report_counts=np.array([]),
                node_counts=np.array([]),
            )

    def test_confidence_interval_brackets_estimate(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([5] * 30 + [0] * 70),
            node_counts=np.zeros(100),
        )
        low, high = result.confidence_interval()
        assert low < 0.3 < high
        assert result.standard_error() > 0.0


class TestMonteCarloSimulator:
    def test_seed_reproducibility(self, small):
        a = MonteCarloSimulator(small, trials=300, seed=5).run()
        b = MonteCarloSimulator(small, trials=300, seed=5).run()
        np.testing.assert_array_equal(a.report_counts, b.report_counts)
        np.testing.assert_array_equal(a.node_counts, b.node_counts)

    def test_different_seeds_differ(self, small):
        a = MonteCarloSimulator(small, trials=300, seed=1).run()
        b = MonteCarloSimulator(small, trials=300, seed=2).run()
        assert not np.array_equal(a.report_counts, b.report_counts)

    def test_batching_invariance(self, small):
        a = MonteCarloSimulator(small, trials=250, seed=9, batch_size=250).run()
        b = MonteCarloSimulator(small, trials=250, seed=9, batch_size=64).run()
        # Different batching consumes the RNG differently, so compare
        # statistics rather than exact trial streams.
        assert a.detection_probability == pytest.approx(
            b.detection_probability, abs=0.1
        )

    def test_node_counts_bounded_by_reports(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=11).run()
        assert np.all(result.node_counts <= result.report_counts)
        assert np.all((result.report_counts == 0) == (result.node_counts == 0))

    def test_reports_bounded_by_max_coverage(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=11).run()
        bound = small.num_sensors * (small.ms + 1)
        assert result.report_counts.max() <= bound

    def test_custom_target_model(self, small):
        result = MonteCarloSimulator(
            small, trials=200, seed=3, target=RandomWalkTarget(small.target_speed)
        ).run()
        assert result.trials == 200

    def test_boundary_modes_run(self, small):
        for boundary in ("torus", "clip", "interior"):
            result = MonteCarloSimulator(
                small, trials=100, seed=4, boundary=boundary
            ).run()
            assert result.trials == 100

    def test_interior_mode_rejects_overlong_tracks(self, small):
        # Track length (12 periods * 150 m = 1800 m) exceeds the 1200 m
        # field diagonal (~1697 m): the rejection sampler can never fit it
        # and must fail loudly.
        scenario = small.replace(
            field=small.field.__class__(1200.0, 1200.0), num_sensors=5
        )
        simulator = MonteCarloSimulator(
            scenario, trials=10, seed=1, boundary="interior"
        )
        with pytest.raises(SimulationError):
            simulator.run()

    def test_false_alarms_inflate_reports(self, small):
        clean = MonteCarloSimulator(small, trials=400, seed=8).run()
        noisy = MonteCarloSimulator(
            small, trials=400, seed=8, false_alarm_prob=0.05
        ).run()
        assert noisy.report_counts.sum() > clean.report_counts.sum()
        assert noisy.false_report_counts.sum() > 0

    def test_detection_periods_consistent_with_reports(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=19).run()
        detected = result.report_counts >= small.threshold
        assert np.all((result.detection_periods > 0) == detected)
        assert result.detection_periods.max() <= small.window

    def test_latency_cdf_monotone_ends_at_detection_probability(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=20).run()
        cdf = result.latency_cdf()
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == pytest.approx(result.detection_probability)

    def test_mean_latency_within_window(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=21).run()
        assert 1.0 <= result.mean_latency() <= small.window

    def test_latency_cdf_matches_naive_loop(self, small):
        result = MonteCarloSimulator(small, trials=500, seed=22).run()
        periods = result.detection_periods
        naive = np.array(
            [
                np.sum((periods > 0) & (periods <= m)) / result.trials
                for m in range(small.window + 1)
            ]
        )
        np.testing.assert_allclose(result.latency_cdf(), naive)

    def test_latency_untracked_raises(self, small):
        result = SimulationResult(
            scenario=small,
            report_counts=np.array([1, 5]),
            node_counts=np.array([1, 3]),
        )
        with pytest.raises(SimulationError):
            result.latency_cdf()
        with pytest.raises(SimulationError):
            result.mean_latency()

    def test_custom_deployment_strategy(self, small):
        from repro.deployment.strategies import deploy_grid

        def deploy(field, count, rng):
            return deploy_grid(field, count, jitter=100.0, rng=rng)

        result = MonteCarloSimulator(
            small, trials=200, seed=6, deployment=deploy
        ).run()
        assert result.trials == 200

    def test_bad_deployment_shape_rejected(self, small):
        simulator = MonteCarloSimulator(
            small, trials=10, seed=1, deployment=lambda f, n, r: np.zeros((3, 2))
        )
        with pytest.raises(SimulationError):
            simulator.run()

    def test_batched_deployment_strategy(self, small):
        import functools

        from repro.deployment.strategies import deploy_grid_batched

        result = MonteCarloSimulator(
            small,
            trials=200,
            seed=6,
            deployment=functools.partial(deploy_grid_batched, jitter=100.0),
        ).run()
        assert result.trials == 200

    def test_batched_deployment_draws_one_block(self, small):
        # A batched strategy sees one call per simulator batch, not one
        # per trial.
        calls = []

        def deploy(field, num_sensors, rng, batch):
            calls.append(batch)
            return rng.uniform(
                (0.0, 0.0),
                (field.width, field.height),
                size=(batch, num_sensors, 2),
            )

        MonteCarloSimulator(
            small, trials=250, seed=7, batch_size=100, deployment=deploy
        ).run()
        assert calls == [100, 100, 50]

    def test_batched_detection_unwraps_partials_and_bound_methods(self):
        import functools

        from repro.deployment.strategies import deploy_grid_batched
        from repro.simulation.runner import _deployment_is_batched

        class Strategy:
            def place(self, field, num_sensors, rng, batch):
                return np.zeros((batch, num_sensors, 2))

            def legacy(self, field, num_sensors, rng):
                return np.zeros((num_sensors, 2))

        strategy = Strategy()
        assert _deployment_is_batched(deploy_grid_batched)
        assert _deployment_is_batched(functools.partial(deploy_grid_batched))
        assert _deployment_is_batched(
            functools.partial(deploy_grid_batched, jitter=1.0)
        )
        # A partial pre-binding `batch` by keyword still wraps a batched
        # deployment; the runner's keyword call overrides the binding
        # (the old positional call crashed with "multiple values").
        assert _deployment_is_batched(
            functools.partial(deploy_grid_batched, batch=8)
        )
        assert _deployment_is_batched(strategy.place)
        assert _deployment_is_batched(functools.partial(Strategy.place, strategy))
        assert _deployment_is_batched(
            functools.partial(functools.partial(Strategy.place), strategy)
        )
        assert not _deployment_is_batched(strategy.legacy)
        assert not _deployment_is_batched(
            functools.partial(Strategy.legacy, strategy)
        )
        assert not _deployment_is_batched(lambda f, n, r: None)
        assert not _deployment_is_batched(len)

    def test_keyword_only_batch_parameter_supported(self, small):
        def deploy(field, num_sensors, rng, *, batch):
            return rng.uniform(
                (0.0, 0.0),
                (field.width, field.height),
                size=(batch, num_sensors, 2),
            )

        result = MonteCarloSimulator(
            small, trials=50, seed=3, deployment=deploy
        ).run()
        assert result.trials == 50

    def test_partial_with_prebound_batch_runs_and_matches_direct(self, small):
        # Regression: partial(batched_fn, batch=...) used to crash with
        # "got multiple values for argument 'batch'"; the runner's batch
        # must override the pre-bound keyword so results are identical to
        # using the bare callable.
        import functools

        from repro.deployment.strategies import deploy_grid_batched

        direct = MonteCarloSimulator(
            small, trials=120, seed=11, deployment=deploy_grid_batched
        ).run()
        wrapped = MonteCarloSimulator(
            small,
            trials=120,
            seed=11,
            deployment=functools.partial(deploy_grid_batched, batch=7),
        ).run()
        np.testing.assert_array_equal(
            direct.report_counts, wrapped.report_counts
        )

    def test_bound_method_deployment_runs_batched(self, small):
        calls = []

        class Strategy:
            def place(self, field, num_sensors, rng, batch):
                calls.append(batch)
                return rng.uniform(
                    (0.0, 0.0),
                    (field.width, field.height),
                    size=(batch, num_sensors, 2),
                )

        MonteCarloSimulator(
            small,
            trials=250,
            seed=7,
            batch_size=100,
            deployment=Strategy().place,
        ).run()
        assert calls == [100, 100, 50]

    def test_bad_batched_deployment_shape_rejected(self, small):
        def deploy(field, num_sensors, rng, batch):
            return np.zeros((batch, 3, 2))

        simulator = MonteCarloSimulator(small, trials=10, seed=1, deployment=deploy)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_invalid_configuration_rejected(self, small):
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, trials=0)
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, batch_size=0)
        for trials in (2.5, True, "10", float("nan")):
            with pytest.raises(SimulationError, match="trials"):
                MonteCarloSimulator(small, trials=trials)
        for batch_size in (2.5, True):
            with pytest.raises(SimulationError, match="batch_size"):
                MonteCarloSimulator(small, batch_size=batch_size)
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, boundary="reflect")
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, false_alarm_prob=1.0)


class TestSlidingWindow:
    def test_period_counts_collected_on_request(self, small):
        result = MonteCarloSimulator(
            small, trials=100, seed=30, collect_period_counts=True
        ).run()
        assert result.period_counts.shape == (100, small.window)
        np.testing.assert_array_equal(
            result.period_counts.sum(axis=1), result.report_counts
        )

    def test_period_counts_absent_by_default(self, small):
        result = MonteCarloSimulator(small, trials=50, seed=31).run()
        assert result.period_counts is None
        with pytest.raises(SimulationError):
            result.sliding_window_detection_probability(window=small.window)

    def test_full_window_matches_fixed_rule(self, small):
        result = MonteCarloSimulator(
            small, trials=400, seed=32, collect_period_counts=True
        ).run()
        sliding = result.sliding_window_detection_probability(
            window=small.window
        )
        assert sliding == pytest.approx(result.detection_probability)

    def test_smaller_window_detects_no_more_with_same_threshold(self, small):
        result = MonteCarloSimulator(
            small, trials=400, seed=33, collect_period_counts=True
        ).run()
        small_window = result.sliding_window_detection_probability(
            window=max(1, small.window // 2)
        )
        full_window = result.sliding_window_detection_probability(
            window=small.window
        )
        assert small_window <= full_window

    def test_invalid_parameters_rejected(self, small):
        result = MonteCarloSimulator(
            small, trials=50, seed=34, collect_period_counts=True
        ).run()
        with pytest.raises(SimulationError):
            result.sliding_window_detection_probability(window=0)
        with pytest.raises(SimulationError):
            result.sliding_window_detection_probability(window=small.window + 1)
        with pytest.raises(SimulationError):
            result.sliding_window_detection_probability(
                window=small.window, threshold=0
            )


class TestCommunicationLoss:
    def test_generous_range_changes_nothing(self, small):
        ideal = MonteCarloSimulator(small, trials=300, seed=50).run()
        connected = MonteCarloSimulator(
            small,
            trials=300,
            seed=50,
            communication_range=100_000.0,
        ).run()
        np.testing.assert_array_equal(
            ideal.report_counts, connected.report_counts
        )

    def test_tiny_range_silences_network(self, small):
        # With a 1 m radio, no sensor reaches the base.
        result = MonteCarloSimulator(
            small, trials=200, seed=51, communication_range=1.0
        ).run()
        assert result.report_counts.sum() == 0

    def test_loss_is_one_sided(self, small):
        ideal = MonteCarloSimulator(small, trials=400, seed=52).run()
        lossy = MonteCarloSimulator(
            small, trials=400, seed=52, communication_range=1_500.0
        ).run()
        assert (
            lossy.detection_probability
            <= ideal.detection_probability + 0.05
        )

    def test_custom_base_station(self, small):
        result = MonteCarloSimulator(
            small,
            trials=100,
            seed=53,
            communication_range=2_000.0,
            base_station=(0.0, 0.0),
        ).run()
        assert result.trials == 100

    def test_invalid_range_rejected(self, small):
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, communication_range=0.0)

    def test_false_alarms_also_dropped(self, small):
        # With an unreachable base, even false reports never arrive.
        result = MonteCarloSimulator(
            small,
            trials=200,
            seed=54,
            communication_range=1.0,
            false_alarm_prob=0.05,
        ).run()
        assert result.false_report_counts.sum() == 0

    def test_generous_range_is_bitwise_identical(self, small):
        # The connectivity mask draws no randomness, so a range that
        # connects everyone must leave every per-trial array untouched.
        ideal = MonteCarloSimulator(small, trials=150, seed=55).run()
        connected = MonteCarloSimulator(
            small, trials=150, seed=55, communication_range=100_000.0
        ).run()
        for name in ("report_counts", "node_counts", "false_report_counts"):
            np.testing.assert_array_equal(
                getattr(ideal, name), getattr(connected, name)
            )

    def test_byzantine_flood_silenced_by_unreachable_base(self, small):
        # Stuck-reporting sensors still need a route: delivery loss via
        # the communication range applies to spurious reports too.
        from repro.faults import FaultModel

        result = MonteCarloSimulator(
            small,
            trials=100,
            seed=56,
            communication_range=1.0,
            faults=FaultModel(stuck_report_frac=1.0),
        ).run()
        assert result.report_counts.sum() == 0
        assert result.false_report_counts.sum() == 0


class TestSummary:
    def test_summary_is_json_serialisable(self, small):
        import json

        result = MonteCarloSimulator(small, trials=300, seed=80).run()
        payload = json.dumps(result.summary())
        data = json.loads(payload)
        assert data["trials"] == 300
        assert 0.0 <= data["detection_probability"] <= 1.0
        assert data["ci_low"] <= data["detection_probability"] <= data["ci_high"]
        assert data["scenario"]["num_sensors"] == small.num_sensors

    def test_summary_includes_latency_when_detected(self, small):
        result = MonteCarloSimulator(small, trials=400, seed=81).run()
        if result.detections > 0:
            assert "mean_latency_periods" in result.summary()

    def test_summary_round_trips_scenario(self, small):
        from repro.core.scenario import Scenario

        result = MonteCarloSimulator(small, trials=50, seed=82).run()
        restored = Scenario.from_dict(result.summary()["scenario"])
        assert restored == small
