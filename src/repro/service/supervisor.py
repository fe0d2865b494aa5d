"""The compute-pool seam: a supervised fleet of compute replicas.

:class:`ReplicaSupervisor` owns N :class:`~repro.service.replica.Replica`
pools and everything needed to keep requests flowing when individual
replicas misbehave — the serving-tier analogue of the paper's core
claim that group-based detection stays reliable when individual sensors
are not:

* **routing** — requests are placed on a
  :class:`~repro.service.router.ConsistentHashRouter` keyed by scenario
  fingerprint, so each scenario's singleflight coalescing and warm
  caches stay on one replica, and membership changes remap a minimal
  key fraction.  Replica ids are permanent ring members; health is a
  routing-time filter, so a replica coming back reclaims exactly its
  old keys.
* **one fault policy** — every fault evicts the replica at once: a
  mid-task crash, an attempt-deadline overrun, or a failed heartbeat
  probe.  The background monitor probes only *idle* replicas
  (``inflight == 0``; a busy replica is proving its liveness by
  serving, and probing behind a slow-but-legitimate task would
  manufacture false evictions).  There is no failure streak and no
  circuit breaker: a replica is routable or evicted, and a restarted
  replica serves as soon as its warm-up probe answers.
* **eviction + restart** — eviction is idempotent (first observer wins,
  so any number of in-flight requests seeing one crash make one
  eviction), wakes in-flight requests for re-routing, and schedules a
  restart with exponential backoff + jitter drawn from a generator
  seeded by :data:`FLEET_SEED` — the same determinism discipline as
  :mod:`repro.faults`, so chaos runs are reproducible.
* **per-request resilience** — every request carries one
  :class:`~repro.service.resilience.DeadlineBudget` across all its
  retries, and crash retries are bounded by ``max_retries``.

The supervisor raises typed verdicts (:class:`FleetTimeout`,
:class:`FleetExhausted`, :class:`NoHealthyReplica`) and leaves HTTP
semantics — 504, 500, degraded serving — to the orchestration layer.

Counters (mirrored into :mod:`repro.obs` under ``fleet.*``; see
``docs/observability.md``): ``evictions``, ``restarts``,
``restart_failures``, ``crashes``, ``overruns``, ``reroutes``,
``probes``, ``probe_failures``; gauge ``healthy_replicas``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.service.metrics import MetricsTable
from repro.service.replica import (
    STATE_HEALTHY,
    STATE_STARTING,
    Replica,
    ReplicaCrashed,
    ReplicaEvicted,
    ReplicaOverrun,
)
from repro.service.resilience import DeadlineBudget, RetryBackoff
from repro.service.router import ConsistentHashRouter

__all__ = [
    "CRASH_WINDOW",
    "FLEET_SEED",
    "FleetConfig",
    "FleetExhausted",
    "FleetTimeout",
    "NoHealthyReplica",
    "ReplicaSupervisor",
]


#: Lookback in seconds for the recent-crash count that readiness reports.
CRASH_WINDOW = 30.0

#: Seed for every jitter draw the fleet makes (restart and retry
#: backoff, and the service's ``Retry-After``).
FLEET_SEED = 20080617


class FleetTimeout(Exception):
    """The request's deadline budget ran out before any replica finished."""


class FleetExhausted(Exception):
    """Replica crashes exhausted the request's retry allowance."""

    def __init__(self, crashes: int):
        super().__init__(
            f"worker pool crashed {crashes} times while handling the request"
        )
        self.crashes = crashes


class NoHealthyReplica(Exception):
    """No routable replica appeared within the request's patience window."""


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs for the replica fleet.

    Attributes:
        replicas: number of compute replicas to supervise.
        max_retries: crash retries allowed per request (matching the
            pre-fleet pool-rebuild retry allowance).
        attempt_timeout: per-*attempt* deadline in seconds; ``None``
            means each attempt may spend the request's whole remaining
            budget.  Setting it below the request timeout converts a
            hung replica from "request times out" into "request
            re-routes and succeeds".
        route_wait: how long a request waits for a routable replica to
            appear (e.g. a restart to finish) before the supervisor
            gives up with :class:`NoHealthyReplica` and the service
            falls back to degraded serving.
        heartbeat_interval: seconds between monitor passes.
        probe_timeout: deadline for a monitor heartbeat probe.
        warmup_timeout: deadline for the first probe of a fresh replica
            (generous: process pools pay worker start-up here).
        restart_backoff_base / restart_backoff_cap: exponential backoff
            envelope for restarting an evicted replica.
        retry_backoff_base: base delay between a request's crash
            retries.
    """

    replicas: int = 1
    max_retries: int = 2
    attempt_timeout: Optional[float] = None
    route_wait: float = 1.0
    heartbeat_interval: float = 0.5
    probe_timeout: float = 5.0
    warmup_timeout: float = 30.0
    restart_backoff_base: float = 0.05
    restart_backoff_cap: float = 2.0
    retry_backoff_base: float = 0.02

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


class ReplicaSupervisor:
    """Runs, routes to, and heals a fleet of compute replicas.

    Args:
        executor_factory: zero-argument callable building one replica's
            pool; called once per replica and once per restart.
        config: fleet tuning knobs.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        executor_factory: Callable[[], Executor],
        config: Optional[FleetConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or FleetConfig()
        self._executor_factory = executor_factory
        self._clock = clock
        self.metrics = MetricsTable("fleet")
        self._replicas: Dict[str, Replica] = {}
        self._restart_attempts: Dict[str, int] = {}
        self._router = ConsistentHashRouter()
        self._restart_backoff = RetryBackoff(
            base=self.config.restart_backoff_base,
            cap=self.config.restart_backoff_cap,
            seed=FLEET_SEED,
        )
        self._retry_backoff = RetryBackoff(
            base=self.config.retry_backoff_base,
            cap=self.config.restart_backoff_cap,
            seed=FLEET_SEED + 1,
        )
        self._crash_times: deque = deque(maxlen=256)
        # Created inside start(): asyncio primitives must be born on the
        # loop that will use them (Python 3.9 binds them at creation).
        self._routable: Optional[asyncio.Event] = None
        self._start_lock: Optional[asyncio.Lock] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._restart_tasks: set = set()
        self._started = False
        self._stopping = False

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has completed."""
        return self._started

    async def start(self) -> None:
        """Build and warm every replica, then start the health monitor.

        Warm-up probes run in parallel.  A replica that fails its
        warm-up is torn down and rescheduled with backoff rather than
        failing the whole fleet — requests degrade until it recovers.
        """
        if self._started:
            return
        if self._start_lock is None:
            self._start_lock = asyncio.Lock()
        async with self._start_lock:
            # Concurrent first-dispatches race here; one warms the
            # fleet, the rest fall through.
            if self._started:
                return
            self._stopping = False
            self._routable = asyncio.Event()
            for index in range(self.config.replicas):
                replica_id = f"r{index}"
                self._replicas[replica_id] = Replica(
                    replica_id, self._executor_factory, clock=self._clock
                )
                self._restart_attempts[replica_id] = 0
                self._router.add(replica_id)
            await asyncio.gather(
                *(
                    self._warm_up(replica)
                    for replica in self._replicas.values()
                )
            )
            self._monitor_task = asyncio.ensure_future(self._monitor())
            self._started = True

    async def stop(self) -> None:
        """Tear the fleet down: monitor, pending restarts, every pool.

        Shutdown teardown is mechanical, not a health verdict — it does
        not touch the ``fleet.evictions`` counter, which counts only
        detected faults.
        """
        self._stopping = True
        tasks = list(self._restart_tasks)
        if self._monitor_task is not None:
            tasks.append(self._monitor_task)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._monitor_task = None
        self._restart_tasks.clear()
        for replica in self._replicas.values():
            replica.evict()
        self._replicas.clear()
        self._restart_attempts.clear()
        self._router = ConsistentHashRouter()
        # Loop-bound primitives die with the loop that made them.
        self._routable = None
        self._start_lock = None
        self._started = False

    async def _warm_up(self, replica: Replica) -> None:
        """First-probe gate: a replica serves only after proving alive."""
        self.metrics.incr("probes")
        if await replica.probe(timeout=self.config.warmup_timeout):
            replica.state = STATE_HEALTHY
            self._restart_attempts[replica.replica_id] = 0
            self._signal_routable()
        else:
            self.metrics.incr("probe_failures")
            self.metrics.incr("restart_failures")
            replica.evict()
            self._schedule_restart(replica.replica_id)
        self._publish_health()

    # -- health monitoring ---------------------------------------------

    async def _monitor(self) -> None:
        """Periodic heartbeat probing of idle replicas."""
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            for replica in list(self._replicas.values()):
                if replica.state != STATE_HEALTHY or replica.evicted:
                    continue
                if replica.inflight > 0:
                    continue
                self.metrics.incr("probes")
                ok = await replica.probe(timeout=self.config.probe_timeout)
                if not ok and not replica.evicted:
                    self.metrics.incr("probe_failures")
                    self._evict(replica, reason="probe-failure")

    def _evict(self, replica: Replica, reason: str) -> None:
        """Fault-driven eviction: count it, tear down, schedule restart.

        Idempotent — concurrent observers of the same fault (two
        in-flight requests, or a request racing the monitor) produce
        exactly one eviction and one restart.
        """
        if replica.evicted or self._stopping:
            return
        replica.evict()
        self._crash_times.append(self._clock())
        self.metrics.incr("evictions")
        self.metrics.event(
            "evict",
            replica=replica.replica_id,
            reason=reason,
            generation=replica.generation,
        )
        self._publish_health()
        self._schedule_restart(replica.replica_id)

    def _schedule_restart(self, replica_id: str) -> None:
        if self._stopping:
            return
        task = asyncio.ensure_future(self._restart(replica_id))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, replica_id: str) -> None:
        """Replace an evicted replica after jittered exponential backoff."""
        attempt = self._restart_attempts[replica_id]
        self._restart_attempts[replica_id] = attempt + 1
        await asyncio.sleep(self._restart_backoff.delay(attempt))
        if self._stopping:
            return
        old = self._replicas.get(replica_id)
        replica = Replica(
            replica_id, self._executor_factory, clock=self._clock
        )
        replica.generation = (old.generation + 1) if old is not None else 1
        self._replicas[replica_id] = replica
        self.metrics.incr("probes")
        if await replica.probe(timeout=self.config.warmup_timeout):
            replica.state = STATE_HEALTHY
            self._restart_attempts[replica_id] = 0
            self.metrics.incr("restarts")
            self.metrics.event(
                "restart", replica=replica_id, generation=replica.generation
            )
            self._publish_health()
            self._signal_routable()
        else:
            self.metrics.incr("probe_failures")
            self.metrics.incr("restart_failures")
            replica.evict()
            self._schedule_restart(replica_id)

    # -- routing + submission ------------------------------------------

    def _is_routable(self, replica_id: str) -> bool:
        """Whether ``replica_id`` is warmed up and not evicted."""
        replica = self._replicas.get(replica_id)
        return (
            replica is not None
            and not replica.evicted
            and replica.state == STATE_HEALTHY
        )

    def _pick(self, key: str) -> Optional[Replica]:
        """First routable replica in ``key``'s ring preference.

        Walks owner → successor → ... so failover is minimal.
        """
        for member in self._router.preference(key):
            if self._is_routable(member):
                return self._replicas[member]
        return None

    def _signal_routable(self) -> None:
        if self._routable is not None:
            self._routable.set()

    def healthy_count(self) -> int:
        """Replicas currently able to take requests."""
        return sum(
            1 for replica_id in self._replicas if self._is_routable(replica_id)
        )

    def recent_crash_count(self) -> int:
        """Fault-driven evictions within the last :data:`CRASH_WINDOW` s."""
        horizon = self._clock() - CRASH_WINDOW
        return sum(1 for stamp in self._crash_times if stamp >= horizon)

    async def wait_routable(self, timeout: float) -> bool:
        """Wait up to ``timeout`` s for some replica to become routable."""
        if self._routable is None:
            self._routable = asyncio.Event()
        deadline = self._clock() + timeout
        while True:
            if self.healthy_count() > 0:
                return True
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._routable.clear()
            try:
                await asyncio.wait_for(
                    self._routable.wait(), timeout=min(remaining, 0.05)
                )
            except asyncio.TimeoutError:
                pass

    async def submit(
        self,
        key: str,
        fn: Callable[..., Any],
        *args: Any,
        budget: DeadlineBudget,
    ) -> Any:
        """Run ``fn(*args)`` on the fleet under ``key``'s routing.

        The request's entire retry story happens here: crashes evict and
        retry (bounded by ``max_retries``), overruns evict and retry on
        whatever budget remains, and a mid-flight eviction re-routes
        without charging the retry allowance — an evicted replica's
        requests are victims, not suspects.

        Raises:
            FleetTimeout: the deadline budget ran out.
            FleetExhausted: crash retries exceeded ``max_retries``.
            NoHealthyReplica: nothing routable within ``route_wait``.
            Exception: whatever deterministic exception ``fn`` raised
                (propagated as-is; compute errors are not fleet faults).
        """
        crashes = 0
        while True:
            if budget.expired():
                raise FleetTimeout(
                    f"request exhausted its {budget.total} s deadline budget"
                )
            replica = self._pick(key)
            if replica is None:
                patience = min(budget.remaining(), self.config.route_wait)
                if not await self.wait_routable(patience):
                    if budget.expired():
                        raise FleetTimeout(
                            f"request exhausted its {budget.total} s "
                            "deadline budget"
                        )
                    raise NoHealthyReplica(
                        "no healthy replica became routable within "
                        f"{patience:.3f} s"
                    )
                continue
            timeout = budget.remaining()
            if self.config.attempt_timeout is not None:
                timeout = min(timeout, self.config.attempt_timeout)
            try:
                result = await replica.run(fn, *args, timeout=timeout)
            except ReplicaEvicted:
                # The fix for the mid-flight leak: the replica died under
                # us, the request did nothing wrong.  Re-route with the
                # remaining budget; no retry allowance is charged.
                self.metrics.incr("reroutes")
                continue
            except ReplicaCrashed:
                crashes += 1
                self.metrics.incr("crashes")
                self._evict(replica, reason="crash")
                if crashes > self.config.max_retries:
                    raise FleetExhausted(crashes)
                delay = min(
                    self._retry_backoff.delay(crashes - 1), budget.remaining()
                )
                if delay > 0:
                    await asyncio.sleep(delay)
                continue
            except ReplicaOverrun:
                # A worker that ate a whole attempt deadline is
                # indistinguishable from hung: recycle it (the pre-fleet
                # behavior recycled the whole pool here).
                self.metrics.incr("overruns")
                self._evict(replica, reason="overrun")
                continue
            return result

    # -- introspection + chaos surface ---------------------------------

    def replica(self, replica_id: str) -> Replica:
        """The current :class:`Replica` for ``replica_id`` (chaos/tests)."""
        return self._replicas[replica_id]

    def replica_ids(self):
        """Stable tuple of member ids (``r0`` ... ``rN-1``)."""
        return tuple(sorted(self._replicas))

    def _publish_health(self) -> None:
        self.metrics.gauge("healthy_replicas", self.healthy_count())

    def snapshot(self) -> Dict[str, Any]:
        """Fleet state for ``/metrics`` and readiness payloads."""
        counters, gauges = self.metrics.snapshot()
        return {
            "replicas": {
                replica_id: {
                    "state": replica.state,
                    "generation": replica.generation,
                    "inflight": replica.inflight,
                    "heartbeat_age": round(replica.heartbeat_age(), 6),
                    "overruns": replica.overruns,
                }
                for replica_id, replica in sorted(self._replicas.items())
            },
            "healthy_replicas": self.healthy_count(),
            "recent_crashes": self.recent_crash_count(),
            "counters": counters,
            "gauges": gauges,
        }
