"""The distributed fleet as an adaptive-search oracle.

Each batch an adaptive search requests becomes one small work-stealing
sweep on a :class:`repro.distributed.LocalFleet`: the points are leased
to worker processes exactly like a grid sweep's, so steals, crash
reclamation, and checkpoint-format rows all come for free.  The rows
come back canonical (:func:`repro.experiments.sweeps.canonical_row`),
and JSON round-trips floats exactly, so a fleet-evaluated point is
byte-identical to the in-process one — the oracle-equivalence matrix
pins this.

Adaptive rounds are *small* (a handful of section points), so per-round
fleet spin-up dominates unless rounds are batched; searches accept
``round_points`` to evaluate several section points per round when the
evaluator is a fleet.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adaptive.evaluators import Evaluator, Point
from repro.core.scenario import Scenario
from repro.distributed.orchestrator import distributed_sweep
from repro.errors import AnalysisError, require_count

__all__ = ["FleetEvaluator"]


class FleetEvaluator(Evaluator):
    """Evaluate oracle points on a local work-stealing worker fleet.

    Args:
        workers: worker processes per round.
        timeout: per-round wall-clock bound forwarded to
            :func:`repro.distributed.distributed_sweep`.
        host / port: coordinator bind address (port 0 = ephemeral).

    Other keyword arguments are the :class:`repro.adaptive.Evaluator`
    engine parameters; the sweep spec carries each of them to the
    workers.
    """

    name = "fleet"

    def __init__(
        self,
        workers: int = 2,
        timeout: Optional[float] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ):
        require_count("workers", workers, AnalysisError)
        if workers < 1:
            raise AnalysisError(f"workers must be >= 1, got {workers}")
        super().__init__(**kwargs)
        self.workers = workers
        self.timeout = timeout
        self.host = host
        self.port = port

    def _compute_points(
        self, scenario: Scenario, points: List[Point]
    ) -> List[float]:
        spec = {
            "kind": "analytical",
            "scenario": scenario.to_dict(),
            "body_truncation": self.truncation,
            "head_truncation": self.head_truncation,
            "substeps": self.substeps,
            "normalize": self.normalize,
        }
        rows = distributed_sweep(
            list(points),
            spec,
            workers=self.workers,
            timeout=self.timeout,
            host=self.host,
            port=self.port,
        )
        return [float(row["detection_probability"]) for row in rows]
