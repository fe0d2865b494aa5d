"""Unit tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "name",
        [
            "ScenarioError",
            "GeometryError",
            "DistributionError",
            "DeploymentError",
            "SimulationError",
            "AnalysisError",
            "RoutingError",
            "StreamError",
            "ProtocolError",
        ],
    )
    def test_all_derive_from_repro_error(self, name):
        assert issubclass(getattr(errors, name), errors.ReproError)

    def test_value_errors_are_value_errors(self):
        # Input-validation errors double as ValueError so generic callers
        # can catch them idiomatically.
        for name in (
            "ScenarioError",
            "GeometryError",
            "DistributionError",
            "DeploymentError",
        ):
            assert issubclass(getattr(errors, name), ValueError), name

    def test_runtime_errors_are_runtime_errors(self):
        for name in (
            "SimulationError",
            "AnalysisError",
            "RoutingError",
            "StreamError",
        ):
            assert issubclass(getattr(errors, name), RuntimeError), name

    def test_protocol_error_is_stream_error_with_code(self):
        exc = errors.ProtocolError("bad frame", code="framing")
        assert isinstance(exc, errors.StreamError)
        assert exc.code == "framing"
        assert errors.ProtocolError("default").code == "protocol"

    def test_catching_base_class_catches_library_errors(self):
        from repro.experiments.presets import onr_scenario

        with pytest.raises(errors.ReproError):
            onr_scenario(num_sensors=0)

    def test_messages_are_informative(self):
        from repro.experiments.presets import onr_scenario

        with pytest.raises(errors.ScenarioError, match="num_sensors"):
            onr_scenario(num_sensors=0)
        with pytest.raises(errors.ScenarioError, match="detect_prob"):
            onr_scenario(detect_prob=7.0)
