"""Exception hierarchy for the ``repro`` package.

All exceptions raised on purpose by this library derive from
:class:`ReproError`, so callers can catch one base class when they want to
distinguish library errors from programming errors.
"""

from __future__ import annotations

import operator


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ScenarioError(ReproError, ValueError):
    """A scenario's parameters are inconsistent or out of range."""


class GeometryError(ReproError, ValueError):
    """A geometric quantity was requested with invalid arguments."""


class DistributionError(ReproError, ValueError):
    """A probability distribution failed validation."""


class DeploymentError(ReproError, ValueError):
    """A sensor deployment request cannot be satisfied."""


class FaultError(ReproError, ValueError):
    """A fault-injection model was configured with invalid rates."""


class SimulationError(ReproError, RuntimeError):
    """A Monte Carlo simulation was configured or executed incorrectly."""


class AnalysisError(ReproError, RuntimeError):
    """An analytical method cannot be applied to the given scenario."""


class RoutingError(ReproError, RuntimeError):
    """A packet could not be routed to its destination."""


class StreamError(ReproError, RuntimeError):
    """A report stream could not be recorded, replayed, or served."""


class ProtocolError(StreamError):
    """A wire frame violated the report-stream protocol.

    Carries an optional machine-readable ``code`` so a peer can be told
    *which* rule it broke in the error frame that precedes the close.
    """

    def __init__(self, message: str, code: str = "protocol"):
        super().__init__(message)
        self.code = code


def require_count(name: str, value, error: type) -> None:
    """Raise ``error`` unless ``value`` is an exact integer: bools and
    non-integral numbers (``2.5``, ``10.0``, NaN) fail, never truncate."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
