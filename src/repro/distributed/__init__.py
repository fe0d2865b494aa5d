"""Work-stealing distributed sweep orchestration.

The distributed tier takes the checkpointed grid sweeps of
:mod:`repro.experiments.sweeps` from one process to a fleet:

* :class:`~repro.distributed.leases.LeaseBook` — the pure scheduling
  state machine (contiguous leases, tail-half steals, two-phase
  revocation, crash reclamation; exactly-once by construction);
* :mod:`~repro.distributed.protocol` — the NDJSON wire grammar, framed
  exactly like the streaming tier;
* :class:`~repro.distributed.coordinator.SweepCoordinator` — the socket
  server owning the canonical point list, the merge map, and the
  checkpoint file (the same atomic format the serial path writes);
* :func:`~repro.distributed.worker.run_worker` — the client loop, usable
  in-process, as a forked local process, or from another host;
* :class:`~repro.distributed.orchestrator.LocalFleet` /
  :func:`~repro.distributed.orchestrator.distributed_sweep` — single-host
  deployment plus the chaos hooks (``kill_worker``, ``abort``).

The contract that makes the tier safe to adopt: for analytical sweeps,
merged rows and checkpoint files are **byte-identical** to the serial
``grid_sweep`` path, for any worker count, any steal schedule, and any
kill/resume interleaving.  See ``docs/distributed.md``.
"""

from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.leases import LeaseBook
from repro.distributed.orchestrator import LocalFleet, distributed_sweep
from repro.distributed.worker import (
    default_worker_name,
    resolve_spec,
    run_worker,
)

__all__ = [
    "LeaseBook",
    "LocalFleet",
    "SweepCoordinator",
    "default_worker_name",
    "distributed_sweep",
    "resolve_spec",
    "run_worker",
]
