"""Unit tests for repro.core.scenario."""

import math

import pytest

from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from repro.errors import ScenarioError
from repro.experiments.presets import onr_scenario


class TestDerivedQuantities:
    def test_step_length(self, onr):
        assert onr.step_length == pytest.approx(600.0)

    def test_ms_fast_target(self, onr):
        # 2*1000 / 600 = 3.33 -> ceil = 4 (the paper's Fig. 3/4 example).
        assert onr.ms == 4

    def test_ms_slow_target(self, onr_slow):
        # 2*1000 / 240 = 8.33 -> ceil = 9.
        assert onr_slow.ms == 9

    def test_ms_exact_division(self):
        scenario = onr_scenario(speed=10.0, sensing_period=100.0)
        # 2*1000 / 1000 = 2 exactly.
        assert scenario.ms == 2

    def test_max_coverage_periods(self, onr):
        assert onr.max_coverage_periods == onr.ms + 1

    def test_dr_area(self, onr):
        assert onr.dr_area == pytest.approx(2 * 1000 * 600 + math.pi * 1000**2)

    def test_nedr_body_area(self, onr):
        assert onr.nedr_body_area == pytest.approx(2 * 1000 * 600)

    def test_aregion_area(self, onr):
        assert onr.aregion_area == pytest.approx(
            2 * 20 * 1000 * 600 + math.pi * 1000**2
        )

    def test_p_indi(self, onr):
        expected = 0.9 * onr.dr_area / (32000.0**2)
        assert onr.p_indi == pytest.approx(expected)

    def test_body_stage_flags(self, onr):
        assert onr.has_body_stage
        assert onr.body_steps == 20 - 4 - 1

    def test_no_body_stage_when_window_small(self):
        scenario = onr_scenario(window=3, threshold=1)
        assert scenario.ms == 4
        assert not scenario.has_body_stage
        assert scenario.body_steps == 0


class TestValidation:
    def test_rejects_bad_sensor_count(self):
        with pytest.raises(ScenarioError):
            onr_scenario(num_sensors=0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ScenarioError):
            onr_scenario(sensing_range=0.0)
        with pytest.raises(ScenarioError):
            onr_scenario(sensing_range=-10.0)

    def test_rejects_static_target(self):
        with pytest.raises(ScenarioError):
            onr_scenario(speed=0.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ScenarioError):
            onr_scenario(sensing_period=0.0)

    def test_rejects_bad_detect_prob(self):
        with pytest.raises(ScenarioError):
            onr_scenario(detect_prob=0.0)
        with pytest.raises(ScenarioError):
            onr_scenario(detect_prob=1.1)

    def test_detect_prob_one_allowed(self):
        assert onr_scenario(detect_prob=1.0).detect_prob == 1.0

    def test_rejects_bad_window_and_threshold(self):
        with pytest.raises(ScenarioError):
            onr_scenario(window=0)
        with pytest.raises(ScenarioError):
            onr_scenario(threshold=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sensors", 2.5),
            ("num_sensors", True),
            ("window", 20.5),
            ("threshold", 3.0),
            ("sensing_range", math.nan),
            ("target_speed", math.inf),
            ("sensing_period", -math.inf),
            ("detect_prob", math.nan),
            ("sensing_range", True),
        ],
    )
    def test_rejects_non_integral_counts_and_non_finite_reals(
        self, onr, field, value
    ):
        with pytest.raises(ScenarioError, match=field):
            onr.replace(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sensors", 10**30),
            ("num_sensors", 2**63),
            ("threshold", 10**20),
            ("window", 2**63),
            ("threshold", -(2**63) - 1),
        ],
    )
    def test_from_dict_rejects_counts_beyond_int64(self, onr, field, value):
        """A typed error, not the engine's raw ``OverflowError``."""
        data = dict(onr.to_dict(), **{field: value})
        with pytest.raises(ScenarioError, match=f"{field} must fit in a signed 64-bit"):
            Scenario.from_dict(data)

    def test_largest_int64_count_is_not_rejected_as_oversized(self, onr):
        with pytest.raises(ScenarioError, match="does not fit in the field"):
            onr.replace(window=2**63 - 1)

    def test_rejects_aregion_larger_than_field(self):
        with pytest.raises(ScenarioError):
            Scenario(
                field=SensorField.square(100.0),
                num_sensors=10,
                sensing_range=50.0,
                target_speed=10.0,
                sensing_period=10.0,
                detect_prob=0.9,
                window=20,
                threshold=5,
            )


class TestConvenience:
    def test_replace(self, onr):
        changed = onr.replace(num_sensors=60)
        assert changed.num_sensors == 60
        assert changed.sensing_range == onr.sensing_range
        assert onr.num_sensors == 240  # original untouched

    def test_replace_validates(self, onr):
        with pytest.raises(ScenarioError):
            onr.replace(detect_prob=2.0)

    def test_describe_mentions_key_parameters(self, onr):
        text = onr.describe()
        assert "240 sensors" in text
        assert "ms=4" in text

    def test_frozen(self, onr):
        with pytest.raises(AttributeError):
            onr.num_sensors = 10


class TestSerialization:
    def test_round_trip(self, onr):
        restored = type(onr).from_dict(onr.to_dict())
        assert restored == onr

    def test_dict_is_json_serialisable(self, onr):
        import json

        payload = json.dumps(onr.to_dict())
        restored = type(onr).from_dict(json.loads(payload))
        assert restored == onr

    def test_missing_key_rejected(self, onr):
        data = onr.to_dict()
        del data["sensing_range"]
        with pytest.raises(ScenarioError):
            type(onr).from_dict(data)

    def test_invalid_value_rejected(self, onr):
        data = onr.to_dict()
        data["detect_prob"] = 2.0
        with pytest.raises(ScenarioError):
            type(onr).from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sensors", True),
            ("num_sensors", 2.5),
            ("num_sensors", "240"),
            ("window", 20.5),
            ("threshold", False),
            ("sensing_range", math.nan),
            ("sensing_range", "600"),
            ("field_width", math.inf),
            ("field_height", math.nan),
            ("detect_prob", True),
            ("sensing_range", 10**400),
        ],
    )
    def test_hostile_value_is_a_scenario_error(self, onr, field, value):
        """Never truncated (2.5 -> 2), coerced (True -> 1) or parsed."""
        data = dict(onr.to_dict(), **{field: value})
        with pytest.raises(ScenarioError, match=field):
            type(onr).from_dict(data)
