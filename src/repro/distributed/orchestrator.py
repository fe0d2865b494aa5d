"""Local fleet orchestration: one coordinator, N worker processes.

:class:`LocalFleet` is the single-host deployment of the distributed
sweep: it runs a :class:`~repro.distributed.coordinator.SweepCoordinator`
in-process (threads) and forks ``workers`` OS processes that each run
:func:`repro.distributed.worker.run_worker` against it over localhost
TCP — the exact code path a multi-host fleet uses, so every protocol
and failure behaviour tested here transfers.  The fleet exposes the
chaos hooks the acceptance tests need: :meth:`kill_worker` delivers
``SIGKILL`` to one worker (the coordinator must reclaim its lease and
finish anyway) and :meth:`abort` simulates a coordinator crash (workers
see EOF; the checkpoint stays partial for a later resume).

:func:`distributed_sweep` is the run-to-completion wrapper
:func:`repro.experiments.sweeps.distributed_grid_sweep` calls.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
import signal
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.worker import resolve_spec, worker_main
from repro.parallel import _validate_workers

__all__ = ["LocalFleet", "distributed_sweep"]


class LocalFleet:
    """A coordinator plus ``workers`` local worker processes.

    Args:
        points: the sweep's point list, in sweep order (plain JSON
            values).
        spec: the compute spec (see
            :func:`repro.distributed.worker.resolve_spec`).
        workers: worker processes to spawn (>= 1).
        checkpoint: optional checkpoint path (resume + durability).
        host / port: coordinator bind address; ``port=0`` picks a free
            port.
        on_progress: optional ``callback(completed, total)`` per merged
            row — the chaos harness trigger.

    Raises:
        ProtocolError: (code ``spec``) for a spec that
            :func:`~repro.distributed.worker.resolve_spec` rejects,
            before any thread or process starts.
    """

    def __init__(
        self,
        points: List[Dict[str, Any]],
        spec: Dict[str, Any],
        workers: int = 2,
        checkpoint: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        on_progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        _validate_workers(workers)
        # A spec no worker could resolve fails here, not as N worker exits.
        resolve_spec(spec)
        self.coordinator = SweepCoordinator(
            points,
            spec,
            checkpoint=checkpoint,
            host=host,
            port=port,
            on_progress=on_progress,
        )
        self._workers = workers
        self._processes: List[multiprocessing.Process] = []

    @property
    def metrics(self):
        """The coordinator's ``dist.*`` metrics table."""
        return self.coordinator.metrics

    def start(self) -> "LocalFleet":
        """Start the coordinator and spawn the worker processes."""
        self.coordinator.start()
        host, port = self.coordinator.address
        context = multiprocessing.get_context()
        for index in range(self._workers):
            process = context.Process(
                target=worker_main,
                args=(host, port, f"w{index}"),
                name=f"dist-worker-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        return self

    def kill_worker(self, index: int) -> int:
        """``SIGKILL`` worker ``index``; returns its PID.

        The kill is deliberately graceless — no atexit handlers, no
        ``bye`` frame — so the coordinator exercises the crash path,
        not the clean-departure one.
        """
        process = self._processes[index]
        if process.pid is None:
            raise SimulationError(f"worker {index} was never started")
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        return process.pid

    def abort(self) -> None:
        """Simulate a coordinator crash, then put the workers down.

        The coordinator's sockets close abruptly first (so workers
        observe the crash rather than a clean ``done``), then surviving
        workers are killed — matching a host loss, where coordinator
        and workers die together.  The checkpoint file keeps whatever
        rows had merged.
        """
        self.coordinator.abort()
        for process in self._processes:
            if process.is_alive() and process.pid is not None:
                os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)

    def join(self, timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Wait for the merged rows, reap workers, shut down cleanly.

        Raises:
            SimulationError: on timeout or if the fleet cannot finish
                (e.g. every worker died and none reconnected).
        """
        try:
            rows = self.coordinator.wait(timeout)
        finally:
            if self.coordinator.done:
                for process in self._processes:
                    process.join(timeout=10)
            self.coordinator.close()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        return rows

    def terminate(self) -> None:
        """Unconditional teardown (idempotent; safe after :meth:`join`)."""
        self.coordinator.close()
        for process in self._processes:
            if process.is_alive() and process.pid is not None:
                os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)


def distributed_sweep(
    points: List[Dict[str, Any]],
    spec: Dict[str, Any],
    workers: int = 2,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> List[Dict[str, Any]]:
    """Run one sweep on a local fleet and return the merged rows.

    Rows come back in sweep order, canonical, byte-identical to the
    serial checkpointed path; see
    :func:`repro.experiments.sweeps.distributed_grid_sweep` for the
    user-facing grid wrapper.

    Raises:
        SimulationError: a ``timeout`` that is not ``None`` or a finite
            number of seconds > 0 (checked before the fleet starts).
    """
    # Bools, strings, NaN and ±inf are refused here rather than
    # busy-waiting or overflowing a thread wait mid-run.
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, numbers.Real)
        or not 0 < timeout <= threading.TIMEOUT_MAX
    ):
        raise SimulationError(
            "timeout must be None or a finite number of seconds > 0, "
            f"got {timeout!r}"
        )
    fleet = LocalFleet(
        points,
        spec,
        workers=workers,
        checkpoint=checkpoint,
        host=host,
        port=port,
        on_progress=on_progress,
    )
    try:
        fleet.start()
        return fleet.join(timeout)
    finally:
        fleet.terminate()
