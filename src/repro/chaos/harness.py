"""Executes a :class:`~repro.chaos.actions.ChaosScript` against a fleet.

The harness is deliberately *blunt*: it reaches past every safety layer
and damages replicas the way the real world would — terminating worker
processes, wedging workers with sleeps submitted straight to the pool
(bypassing the replica's in-flight accounting, exactly like a kernel
that stops cooperating) — and then stands back.  Recovery must come
from the supervisor's own detection machinery: a killed replica is
discovered by the next task or heartbeat probe, a hung one by a probe
timeout or an attempt-deadline overrun.  Nothing in the harness tells
the supervisor what happened.

Injection bookkeeping lands in the ``chaos.*`` namespace
(:class:`~repro.service.metrics.MetricsTable`): ``injected`` plus one
counter per kind (``kills``/``hangs``), so a traced
run's manifest carries the injected-fault totals right next to the
``fleet.*`` recovery totals they must reconcile with.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.chaos.actions import ChaosAction, ChaosScript
from repro.service.metrics import MetricsTable
from repro.service.supervisor import ReplicaSupervisor

__all__ = ["ChaosHarness", "ChaosReport"]


def _wedge(seconds: float) -> str:
    """Worker-side sleep used for ``hang``; must stay picklable."""
    time.sleep(seconds)
    return "wedged"


@dataclass
class ChaosReport:
    """What a harness run actually did (for artifacts and assertions)."""

    script: Dict
    injected: List[Dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def fault_count(self) -> int:
        """Evictions a correct supervisor performs for the injected set."""
        return self.script.get("fault_count", 0)

    def to_dict(self) -> Dict:
        return {
            "script": self.script,
            "injected": self.injected,
            "counters": self.counters,
            "duration_seconds": self.finished_at - self.started_at,
        }


class ChaosHarness:
    """Replays a script's faults against a running supervisor.

    Args:
        supervisor: the fleet under attack (must be started).
        script: the fault schedule.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        script: ChaosScript,
        clock=time.monotonic,
    ):
        self.supervisor = supervisor
        self.script = script
        self.metrics = MetricsTable("chaos")
        self._clock = clock
        self._rng = np.random.default_rng(script.seed)

    def _target(self, action: ChaosAction) -> str:
        """The replica an action hits — scripted, or a seeded draw."""
        if action.replica is not None:
            return action.replica
        members = self.supervisor.replica_ids()
        if not members:
            raise RuntimeError("cannot inject chaos into an empty fleet")
        return str(self._rng.choice(list(members)))

    async def run(self) -> ChaosReport:
        """Replay every action at its offset; return the injection report."""
        report = ChaosReport(script=self.script.to_dict())
        report.started_at = self._clock()
        for action in self.script.actions:
            delay = (report.started_at + action.at) - self._clock()
            if delay > 0:
                await asyncio.sleep(delay)
            target = self._target(action)
            self._inject(action, target)
            self.metrics.incr("injected")
            self.metrics.event(
                "inject", kind=action.kind, replica=target, at=action.at
            )
            report.injected.append(
                {
                    "kind": action.kind,
                    "replica": target,
                    "scheduled_at": action.at,
                    "injected_at": self._clock() - report.started_at,
                    "duration": action.duration,
                }
            )
        report.finished_at = self._clock()
        counters, _gauges = self.metrics.snapshot()
        report.counters = counters
        return report

    def _inject(self, action: ChaosAction, target: str) -> None:
        if action.kind == "kill":
            self.metrics.incr("kills")
            self.supervisor.replica(target).kill()
        elif action.kind == "hang":
            self.metrics.incr("hangs")
            self._wedge_workers(target, action.duration)
        else:  # pragma: no cover - ChaosAction validates kinds
            raise ValueError(f"unknown chaos kind {action.kind!r}")

    def _wedge_workers(self, target: str, duration: float) -> None:
        """Occupy every worker of ``target`` with a sleep.

        Submitted straight to the pool — not through ``Replica.run`` —
        so the replica's in-flight count stays untouched: the wedge is
        invisible until a probe or a real request queues behind it.
        """
        replica = self.supervisor.replica(target)
        workers = getattr(replica.pool, "_max_workers", 1)
        for _ in range(workers):
            replica.pool.submit(_wedge, duration)
