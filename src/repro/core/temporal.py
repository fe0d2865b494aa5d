"""The T-approach (Section 3.2): why period-by-period modelling explodes.

The paper rejects the "Temporal approach" because a period-by-period Markov
chain must remember, for each of the last ``ms`` periods, how many sensors
sit in each overlapped-DR stratum — the joint occupancy needed to resolve
the temporally correlated detection dependency.  This module quantifies
that argument: it computes the state-space size such a chain would need, so
benchmarks and docs can show *why* the M-S-approach exists rather than just
asserting it.

We use the same occupancy truncation ``g`` the M-S-approach uses per NEDR.
A faithful T-approach state must record:

* the accumulated report count (``M * Z + 1`` values, as in the
  M-S-approach), and
* for each of the ``ms`` currently-overlapping previous periods, the number
  of not-yet-expired sensors (0..g) whose coverage extends into the current
  period — ``(g + 1) ** ms`` occupancy configurations.

That product is a *lower bound*: resolving per-sensor remaining coverage
exactly requires splitting each occupancy count by remaining-coverage
length, which multiplies the count further.
"""

from __future__ import annotations

from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = ["t_approach_state_count"]


def t_approach_state_count(scenario: Scenario, occupancy_truncation: int = 3) -> int:
    """Lower bound on the T-approach's Markov state-space size.

    ``(M * Z + 1) * (g + 1) ** ms`` with ``Z = (ms + 1) * g``.

    Args:
        scenario: the model parameters.
        occupancy_truncation: per-period sensor-count truncation ``g``.

    Raises:
        AnalysisError: if ``occupancy_truncation < 1``.
    """
    if occupancy_truncation < 1:
        raise AnalysisError(
            f"occupancy_truncation must be >= 1, got {occupancy_truncation}"
        )
    g = occupancy_truncation
    z = (scenario.ms + 1) * g
    report_states = scenario.window * z + 1
    occupancy_states = (g + 1) ** scenario.ms
    return report_states * occupancy_states
