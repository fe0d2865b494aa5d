"""One compute replica: an executor pool plus health bookkeeping.

A :class:`Replica` wraps a single worker pool (process-backed in
production, thread-backed in unit tests) with the mechanics the
supervisor needs to manage it:

* **in-flight accounting** — how many requests the replica is currently
  computing (health probes only run on idle replicas, so a slow request
  is never mistaken for a dead worker);
* **heartbeat bookkeeping** — the timestamp of the last proof of life
  (any completed task or probe refreshes it);
* **the evicted-event race** — :meth:`run` awaits the pool future *and*
  the replica's eviction event simultaneously, so when the supervisor
  evicts a replica mid-flight its in-flight requests fail fast with
  :class:`ReplicaEvicted` (instead of hanging on a dead pool) and the
  supervisor re-routes them with their remaining deadline budget;
* **chaos hooks** — :meth:`kill` destroys the pool's workers abruptly
  (the moral equivalent of ``kill -9``), used only by
  :mod:`repro.chaos`.

State transitions (driven by :class:`~repro.service.supervisor.\
ReplicaSupervisor`, recorded here)::

    starting --(warm-up probe ok)--> healthy --(evict)--> evicted
         \\--(warm-up fails)--> evicted        (restart = new Replica)
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

__all__ = [
    "Replica",
    "ReplicaCrashed",
    "ReplicaEvicted",
    "ReplicaOverrun",
    "STATE_STARTING",
    "STATE_HEALTHY",
    "STATE_EVICTED",
]

STATE_STARTING = "starting"
STATE_HEALTHY = "healthy"
STATE_EVICTED = "evicted"


def _abandon_pool(pool: Executor) -> None:
    """Shut a pool down without waiting on possibly-hung workers.

    ``shutdown(wait=True)`` would join workers that may never return; the
    best-effort ``terminate`` ensures a hung worker cannot wedge the
    event loop (or the interpreter's exit handler).
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown never raises in CPython
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass


class ReplicaCrashed(Exception):
    """The replica's pool lost a worker process mid-task."""


class ReplicaOverrun(Exception):
    """A task exceeded its per-attempt deadline on this replica."""


class ReplicaEvicted(Exception):
    """The replica was evicted while this task was in flight."""


def _heartbeat() -> str:
    """Probe task submitted to replica pools; must stay picklable."""
    return "ok"


class _BrokenExecutor(Executor):
    """Stand-in pool whose submissions fail like a crashed process pool.

    :meth:`Replica.kill` swaps this in when the real pool has no OS
    processes to terminate (thread pools in unit tests), so chaos kills
    surface identically — as :class:`BrokenProcessPool` — on every pool
    flavor.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_exception(
            BrokenProcessPool("replica pool was killed by chaos injection")
        )
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        pass


class Replica:
    """One supervised compute pool.

    Args:
        replica_id: stable id; doubles as the consistent-hash ring
            member label, so a restarted replica reclaims exactly the
            keys its predecessor owned.
        executor_factory: zero-argument callable building the pool.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        replica_id: str,
        executor_factory: Callable[[], Executor],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.replica_id = replica_id
        self._executor_factory = executor_factory
        self._clock = clock
        self.pool: Executor = executor_factory()
        self.state = STATE_STARTING
        self.inflight = 0
        self.overruns = 0
        self.last_heartbeat = clock()
        self._evicted = asyncio.Event()
        #: Monotonic generation stamp set by the supervisor (restart count).
        self.generation = 0

    # -- health bookkeeping --------------------------------------------

    @property
    def evicted(self) -> bool:
        """Whether :meth:`evict` has run."""
        return self._evicted.is_set()

    def heartbeat_age(self) -> float:
        """Seconds since the last completed task or probe."""
        return self._clock() - self.last_heartbeat

    def mark_alive(self) -> None:
        """Record proof of life: refresh the heartbeat."""
        self.last_heartbeat = self._clock()

    # -- task execution ------------------------------------------------

    async def run(
        self, fn: Callable[..., Any], *args: Any, timeout: Optional[float]
    ) -> Any:
        """Run ``fn(*args)`` on the pool, racing deadline and eviction.

        Raises:
            ReplicaEvicted: the supervisor evicted this replica before
                the task finished (the underlying future is abandoned —
                its worker is already being torn down).
            ReplicaOverrun: the task outlived ``timeout`` seconds.
            ReplicaCrashed: the pool broke (worker process died).
        """
        if self.evicted:
            raise ReplicaEvicted(f"replica {self.replica_id} is evicted")
        try:
            raw_future = self.pool.submit(fn, *args)
        except (BrokenProcessPool, RuntimeError) as exc:
            # A broken pool rejects submissions outright (and a pool torn
            # down under us raises RuntimeError): same remedy as a
            # mid-task crash — evict and re-route.
            raise ReplicaCrashed(
                f"replica {self.replica_id} pool rejected the task: {exc}"
            ) from exc
        task_future = asyncio.ensure_future(asyncio.wrap_future(raw_future))
        evicted_waiter = asyncio.ensure_future(self._evicted.wait())
        self.inflight += 1
        try:
            done, _pending = await asyncio.wait(
                {task_future, evicted_waiter},
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if task_future in done:
                try:
                    result = task_future.result()
                except asyncio.CancelledError:
                    # Eviction abandons the pool with cancel_futures=True;
                    # a still-queued task's future lands cancelled, and it
                    # can beat the eviction event into the same wait()
                    # wake-up.  Never the outer task — that cancellation
                    # raises at the await above, not from result().
                    if self.evicted:
                        raise ReplicaEvicted(
                            f"replica {self.replica_id} was evicted "
                            "mid-flight"
                        ) from None
                    raise ReplicaCrashed(
                        f"replica {self.replica_id} dropped a queued task"
                    ) from None
                except BrokenProcessPool as exc:
                    raise ReplicaCrashed(
                        f"replica {self.replica_id} pool crashed: {exc}"
                    ) from exc
                self.mark_alive()
                return result
            task_future.cancel()
            if evicted_waiter in done:
                raise ReplicaEvicted(
                    f"replica {self.replica_id} was evicted mid-flight"
                )
            self.overruns += 1
            raise ReplicaOverrun(
                f"task on replica {self.replica_id} exceeded its "
                f"{timeout} s attempt deadline"
            )
        finally:
            self.inflight -= 1
            evicted_waiter.cancel()

    async def probe(self, timeout: float) -> bool:
        """Submit a heartbeat probe; ``True`` (and refreshed heartbeat)
        on success, ``False`` on crash/overrun/eviction."""
        try:
            await self.run(_heartbeat, timeout=timeout)
        except (ReplicaCrashed, ReplicaOverrun, ReplicaEvicted):
            return False
        return True

    # -- lifecycle -----------------------------------------------------

    def evict(self) -> None:
        """Tear the replica down (idempotent).

        Wakes every in-flight :meth:`run` with :class:`ReplicaEvicted`,
        then abandons the pool — terminate, never join — so a hung
        worker cannot stall the event loop.
        """
        if self._evicted.is_set():
            return
        self.state = STATE_EVICTED
        self._evicted.set()
        _abandon_pool(self.pool)

    def kill(self) -> None:
        """Chaos hook: destroy the pool's workers without telling anyone.

        Unlike :meth:`evict` this leaves the replica notionally healthy
        — the next task (or probe) discovers the damage as
        :class:`ReplicaCrashed`, which is the point: recovery must be
        *detected*, not assumed.  Process pools get their worker
        processes terminated; thread pools (unit tests) get the pool
        swapped for one that fails like a crashed process pool.
        """
        processes = getattr(self.pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                process.terminate()
        else:
            old = self.pool
            self.pool = _BrokenExecutor()
            old.shutdown(wait=False, cancel_futures=True)
