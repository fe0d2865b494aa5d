"""Duty-cycled (sleep-scheduled) sensing.

The related work the paper contrasts itself with ([13]-[20]) studies node
scheduling: sensors sleep most periods to stretch network lifetime.  Under
*random independent* scheduling — each sensor is awake in each period with
probability ``d``, independently — the group-detection model folds the
duty cycle exactly into the per-period detection probability:

    P(awake and detects | in range) = d * Pd,

and independence across periods/sensors is preserved, so every analysis in
:mod:`repro.core` applies verbatim to the *effective scenario* with
``detect_prob = d * Pd``.  The EXT-DUTY experiment validates this fold
against a simulator that draws explicit sleep schedules.

Lifetime bookkeeping uses the standard first-order model: energy is spent
while sensing, so halving the duty cycle doubles deployment lifetime.
"""

from __future__ import annotations

from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = [
    "apply_duty_cycle",
    "lifetime_multiplier",
]


def _check_duty(duty_cycle: float) -> None:
    if not 0.0 < duty_cycle <= 1.0:
        raise AnalysisError(f"duty_cycle must be in (0, 1], got {duty_cycle}")


def apply_duty_cycle(scenario: Scenario, duty_cycle: float) -> Scenario:
    """The effective scenario of a randomly duty-cycled deployment.

    Args:
        scenario: the always-on scenario.
        duty_cycle: per-period awake probability ``d`` in ``(0, 1]``.

    Returns:
        A scenario with ``detect_prob`` scaled by ``d`` — exact for
        independent random schedules (see module docstring).
    """
    _check_duty(duty_cycle)
    return scenario.replace(detect_prob=scenario.detect_prob * duty_cycle)


def lifetime_multiplier(duty_cycle: float) -> float:
    """First-order lifetime gain of sleeping: ``1 / d``."""
    _check_duty(duty_cycle)
    return 1.0 / duty_cycle
