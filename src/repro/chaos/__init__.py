"""repro.chaos — scripted fault injection for the serving fleet.

The proof layer for the robustness tier: every recovery behavior the
supervisor claims (eviction, restart, re-routing, degradation) is
*demonstrated* by replaying deterministic fault scripts against a live
fleet and checking the books afterwards — ``fleet.evictions`` and
``fleet.restarts`` must match the script's ``fault_count()`` exactly,
and availability must hold while the faults land.

Typical use (see ``docs/robustness.md`` for a runnable walkthrough)::

    from repro.chaos import ChaosHarness, ChaosScript, hang, kill

    script = ChaosScript(actions=(kill(at=0.5), hang(at=1.5, duration=8.0)),
                         seed=7)
    harness = ChaosHarness(service.supervisor, script)
    report = await harness.run()          # while load is in flight
    assert service.supervisor.metrics.counter("evictions") == script.fault_count()

Driven at scale by ``tests/integration/test_chaos_acceptance.py`` and
``benchmarks/bench_chaos.py`` (the availability benchmark and CI
chaos-smoke artifact).

The distributed-sweep analogue lives in :mod:`repro.chaos.distributed`:
progress-triggered ``kill_worker`` / ``kill_coordinator`` scripts
replayed against a :class:`repro.distributed.orchestrator.LocalFleet`,
with the byte-identical-merge contract as the pass criterion
(``tests/integration/test_distributed_acceptance.py``).
"""

from repro.chaos.actions import (
    ChaosAction,
    ChaosScript,
    KINDS,
    hang,
    kill,
)
from repro.chaos.distributed import (
    SWEEP_KINDS,
    SweepChaosAction,
    SweepChaosHarness,
    SweepChaosScript,
    kill_coordinator,
    kill_worker,
)
from repro.chaos.harness import ChaosHarness, ChaosReport

__all__ = [
    "ChaosAction",
    "ChaosHarness",
    "ChaosReport",
    "ChaosScript",
    "KINDS",
    "SWEEP_KINDS",
    "SweepChaosAction",
    "SweepChaosHarness",
    "SweepChaosScript",
    "hang",
    "kill",
    "kill_coordinator",
    "kill_worker",
]
