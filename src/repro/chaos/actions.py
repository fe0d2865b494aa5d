"""Scripted fault actions for the replica fleet.

A :class:`ChaosScript` is a deterministic description of *what goes
wrong when*: an ordered set of :class:`ChaosAction` entries, each firing
at a fixed offset from scenario start.  Scripts follow the same
discipline as :mod:`repro.faults` — everything random (here: which
replica a targetless action hits) is drawn from a generator seeded by
the script's ``seed``, so two runs of the same script against the same
fleet inject the same faults into the same replicas in the same order.

Action kinds:

=========  ==========================================================
``kill``   terminate the replica's worker processes outright (the
           moral equivalent of ``kill -9``); discovered by the next
           task or heartbeat probe, evicted, restarted.
``hang``   wedge every worker in the replica with an uninterruptible
           sleep of ``duration`` seconds; detected by probe timeout
           or attempt-deadline overrun.  A wedge shorter than the
           probe timeout is only a slow replica, and is not evicted.
=========  ==========================================================

``fault_count`` is the number of evictions+restarts a correct
supervisor performs for the script: 1 per ``kill``/``hang`` that
outlasts the probe timeout — the chaos acceptance suite pins the
``fleet.evictions``/``fleet.restarts`` counters to it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["ChaosAction", "ChaosScript", "KINDS", "hang", "kill"]

KINDS = ("kill", "hang")

#: Evictions (and restarts) a correct supervisor performs per action.
_FAULTS_PER_KIND = {"kill": 1, "hang": 1}


@dataclass(frozen=True)
class ChaosAction:
    """One scripted fault.

    Attributes:
        at: offset in seconds from scenario start.
        kind: one of :data:`KINDS`.
        replica: target replica id; ``None`` lets the harness draw one
            from the script's seeded generator.
        duration: wedge length for ``hang``.
    """

    at: float
    kind: str
    replica: Optional[str] = None
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def fault_count(self) -> int:
        """Evictions a correct supervisor performs for this action."""
        return _FAULTS_PER_KIND[self.kind]

    def to_dict(self) -> Dict:
        return {
            "at": self.at,
            "kind": self.kind,
            "replica": self.replica,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class ChaosScript:
    """An ordered, seeded fault schedule.

    Attributes:
        actions: the faults, replayed in ``at`` order.
        seed: generator seed for every random choice the harness makes
            while executing the script (target selection).
    """

    actions: Tuple[ChaosAction, ...] = field(default_factory=tuple)
    seed: int = 20080617

    def __post_init__(self):
        object.__setattr__(
            self, "actions", tuple(sorted(self.actions, key=lambda a: a.at))
        )

    def fault_count(self) -> int:
        """Total evictions a correct supervisor performs for this script."""
        return sum(action.fault_count for action in self.actions)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "fault_count": self.fault_count(),
            "actions": [action.to_dict() for action in self.actions],
        }


def kill(at: float, replica: Optional[str] = None) -> ChaosAction:
    """A ``kill`` action at offset ``at``."""
    return ChaosAction(at=at, kind="kill", replica=replica)


def hang(at: float, duration: float, replica: Optional[str] = None) -> ChaosAction:
    """A ``hang`` action wedging all workers for ``duration`` seconds."""
    return ChaosAction(at=at, kind="hang", replica=replica, duration=duration)
