"""Unit tests for the replica fleet: router, resilience, replica, supervisor."""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service import (
    ConsistentHashRouter,
    DeadlineBudget,
    FleetConfig,
    FleetExhausted,
    FleetTimeout,
    NoHealthyReplica,
    ReplicaSupervisor,
    RetryBackoff,
)
from repro.service.replica import (
    Replica,
    ReplicaCrashed,
    ReplicaEvicted,
    ReplicaOverrun,
    STATE_HEALTHY,
)


def run(coro):
    return asyncio.run(coro)


class _FakeClock:
    """Manually-advanced monotonic clock for deterministic timing tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _echo(value):
    return value


def _boom():
    raise ValueError("deterministic model error")


class _Gate:
    """A callable whose completion the test controls."""

    def __init__(self):
        self.calls = 0
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == 1 and not self.release.wait(timeout=10):
            raise RuntimeError("gate never released")
        return f"call-{call}"


# -- router ------------------------------------------------------------


class TestConsistentHashRouter:
    def test_empty_ring_raises(self):
        router = ConsistentHashRouter()
        with pytest.raises(LookupError):
            router.route("k")

    def test_add_duplicate_raises(self):
        router = ConsistentHashRouter()
        router.add("r0")
        with pytest.raises(ValueError):
            router.add("r0")

    def test_remove_missing_raises(self):
        router = ConsistentHashRouter()
        with pytest.raises(ValueError):
            router.remove("r0")

    def test_membership_protocol(self):
        router = ConsistentHashRouter()
        router.add("r0")
        router.add("r1")
        assert len(router) == 2
        assert "r0" in router
        assert "r2" not in router
        assert sorted(router.members) == ["r0", "r1"]

    def test_routing_is_deterministic(self):
        a = ConsistentHashRouter()
        b = ConsistentHashRouter()
        for member in ("r0", "r1", "r2"):
            a.add(member)
            b.add(member)
        keys = [f"k{i}" for i in range(100)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_shares_census_counts_every_key(self):
        router = ConsistentHashRouter()
        for member in ("r0", "r1", "r2"):
            router.add(member)
        keys = [f"k{i}" for i in range(300)]
        counts, total = router.shares(keys)
        assert total == len(keys)
        assert sum(counts.values()) == len(keys)


# -- resilience --------------------------------------------------------


class TestDeadlineBudget:
    def test_counts_down_against_the_clock(self):
        clock = _FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.total == 10.0
        assert budget.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired()
        clock.advance(7.0)
        assert budget.remaining() == 0.0
        assert budget.expired()


class TestRetryBackoff:
    def test_seeded_sequence_is_reproducible(self):
        a = RetryBackoff(base=0.1, cap=5.0, seed=7)
        b = RetryBackoff(base=0.1, cap=5.0, seed=7)
        assert [a.delay(i) for i in range(6)] == [b.delay(i) for i in range(6)]

    def test_delays_stay_inside_the_jitter_envelope(self):
        backoff = RetryBackoff(base=0.1, cap=5.0, seed=42)
        for attempt in range(8):
            ceiling = min(5.0, 0.1 * (2**attempt))
            delay = backoff.delay(attempt)
            assert 0.5 * ceiling <= delay <= ceiling


# -- replica -----------------------------------------------------------


def _thread_pool():
    return ThreadPoolExecutor(max_workers=1)


def _held(value):
    return value


class _CrashablePool(Executor):
    """Runs tasks inline, except that a holding pool parks ``_held`` tasks.

    :meth:`crash` fails every parked task at once with
    :class:`BrokenProcessPool`, as a process pool that loses a worker
    fails all of its pending futures together.
    """

    def __init__(self, hold: bool):
        self.hold = hold
        self.parked = []

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        if self.hold and fn is _held:
            self.parked.append(future)
        else:
            future.set_result(fn(*args, **kwargs))
        return future

    def crash(self) -> None:
        for future in self.parked:
            future.set_exception(BrokenProcessPool("worker died"))

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        pass


class TestReplica:
    def test_run_returns_result_and_refreshes_heartbeat(self):
        async def main():
            clock = _FakeClock()
            replica = Replica("r0", _thread_pool, clock=clock)
            clock.advance(7.0)
            assert replica.heartbeat_age() == 7.0
            result = await replica.run(_echo, "hi", timeout=5.0)
            assert result == "hi"
            assert replica.heartbeat_age() == 0.0
            replica.evict()

        run(main())

    def test_overrun_raises_and_counts(self):
        async def main():
            replica = Replica("r0", _thread_pool)
            with pytest.raises(ReplicaOverrun):
                await replica.run(time.sleep, 5.0, timeout=0.05)
            assert replica.overruns == 1
            replica.evict()

        run(main())

    def test_eviction_mid_flight_fails_fast(self):
        async def main():
            replica = Replica("r0", _thread_pool)
            gate = _Gate()
            task = asyncio.ensure_future(replica.run(gate, timeout=10.0))
            while replica.inflight == 0:
                await asyncio.sleep(0.001)
            replica.evict()
            with pytest.raises(ReplicaEvicted):
                await task
            assert replica.inflight == 0, "in-flight accounting must not leak"
            gate.release.set()

        run(main())

    def test_eviction_of_queued_task_is_eviction_not_cancellation(self):
        # Eviction abandons the pool with cancel_futures=True, so a task
        # still *queued* behind a busy worker gets its future cancelled —
        # and that cancellation can reach asyncio.wait() in the same tick
        # as the eviction event.  It must surface as ReplicaEvicted (a
        # reroutable fleet fault), never a raw CancelledError.
        async def main():
            replica = Replica("r0", _thread_pool)
            gate = _Gate()
            running = asyncio.ensure_future(replica.run(gate, timeout=10.0))
            while gate.calls == 0:
                await asyncio.sleep(0.001)
            queued = asyncio.ensure_future(replica.run(_echo, 1, timeout=10.0))
            while replica.inflight < 2:
                await asyncio.sleep(0.001)
            replica.evict()
            with pytest.raises(ReplicaEvicted):
                await queued
            with pytest.raises(ReplicaEvicted):
                await running
            assert replica.inflight == 0
            gate.release.set()

        run(main())

    def test_killed_pool_surfaces_as_crash(self):
        async def main():
            replica = Replica("r0", _thread_pool)
            replica.kill()
            with pytest.raises(ReplicaCrashed):
                await replica.run(_echo, 1, timeout=5.0)
            replica.evict()

        run(main())

    def test_probe_reports_health(self):
        async def main():
            replica = Replica("r0", _thread_pool)
            assert await replica.probe(timeout=5.0)
            replica.kill()
            assert not await replica.probe(timeout=5.0)
            replica.evict()

        run(main())

    def test_deterministic_exceptions_propagate_untouched(self):
        async def main():
            replica = Replica("r0", _thread_pool)
            with pytest.raises(ValueError, match="deterministic model error"):
                await replica.run(_boom, timeout=5.0)
            replica.evict()

        run(main())


# -- supervisor --------------------------------------------------------


def _fast_config(**overrides) -> FleetConfig:
    defaults = dict(
        replicas=2,
        heartbeat_interval=0.05,
        probe_timeout=1.0,
        warmup_timeout=5.0,
        route_wait=0.5,
        restart_backoff_base=0.01,
        restart_backoff_cap=0.05,
        retry_backoff_base=0.005,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestReplicaSupervisor:
    def test_start_warms_every_replica(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                assert supervisor.replica_ids() == ("r0", "r1")
                assert supervisor.healthy_count() == 2
                for replica_id in supervisor.replica_ids():
                    assert supervisor.replica(replica_id).state == STATE_HEALTHY
            finally:
                await supervisor.stop()

        run(main())

    def test_submit_runs_on_the_fleet(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                budget = DeadlineBudget(5.0)
                result = await supervisor.submit(
                    "scenario-a", _echo, 42, budget=budget
                )
                assert result == 42
            finally:
                await supervisor.stop()

        run(main())

    def test_kill_is_detected_evicted_and_restarted(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                supervisor.replica("r0").kill()
                deadline = time.monotonic() + 5.0
                while (
                    supervisor.metrics.counter("restarts") < 1
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert supervisor.metrics.counter("evictions") == 1
                assert supervisor.metrics.counter("restarts") == 1
                assert supervisor.replica("r0").generation == 1
                assert supervisor.healthy_count() == 2
            finally:
                await supervisor.stop()

        run(main())

    def test_crash_under_load_evicts_once_and_restarts_without_cooldown(self):
        """Every request on a crashed replica sees the crash; the replica
        is evicted and restarted once, and the new generation serves the
        next request at once."""
        pools = []

        def factory():
            pools.append(_CrashablePool(hold=not pools))
            return pools[-1]

        async def main():
            config = _fast_config(replicas=1, route_wait=1.0)
            supervisor = ReplicaSupervisor(factory, config)
            await supervisor.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        supervisor.submit(
                            f"k{index}", _held, index,
                            budget=DeadlineBudget(5.0),
                        )
                    )
                    for index in range(4)
                ]
                while supervisor.replica("r0").inflight < 4:
                    await asyncio.sleep(0.001)
                pools[0].crash()
                # Each request retries on the restarted replica.
                assert await asyncio.gather(*tasks) == [0, 1, 2, 3]
                assert supervisor.metrics.counter("crashes") == 4
                assert supervisor.metrics.counter("evictions") == 1
                assert supervisor.metrics.counter("restarts") == 1
                assert len(pools) == 2
                assert supervisor.replica("r0").generation == 1
                assert supervisor.healthy_count() == 1
                started = time.monotonic()
                assert await supervisor.submit(
                    "k-next", _echo, "next", budget=DeadlineBudget(0.5)
                ) == "next"
                assert time.monotonic() - started < 0.1
                assert supervisor.metrics.counter("evictions") == 1
            finally:
                await supervisor.stop()

        run(main())

    def test_mid_flight_eviction_reroutes_without_charging_retries(self):
        """The leak fix: requests on an evicted replica re-route and finish."""

        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            gate = _Gate()
            try:
                # Find the key's owner, park a request on it, evict it.
                key = "scenario-leak"
                owner = supervisor._router.route(key)
                task = asyncio.ensure_future(
                    supervisor.submit(
                        key, gate, budget=DeadlineBudget(10.0)
                    )
                )
                victim = supervisor.replica(owner)
                while victim.inflight == 0:
                    await asyncio.sleep(0.001)
                supervisor._evict(victim, reason="test")
                result = await task
                # The re-routed attempt is the gate's second call.
                assert result == "call-2"
                assert supervisor.metrics.counter("reroutes") == 1
                assert supervisor.metrics.counter("crashes") == 0
            finally:
                gate.release.set()
                await supervisor.stop()

        run(main())

    def test_crash_retries_are_bounded(self):
        async def main():
            config = _fast_config(replicas=1, max_retries=0, route_wait=0.05)
            supervisor = ReplicaSupervisor(_thread_pool, config)
            await supervisor.start()
            try:
                supervisor.replica("r0").kill()
                with pytest.raises(FleetExhausted) as excinfo:
                    await supervisor.submit(
                        "k", _echo, 1, budget=DeadlineBudget(5.0)
                    )
                assert excinfo.value.crashes == 1
                assert "crashed 1 times" in str(excinfo.value)
            finally:
                await supervisor.stop()

        run(main())

    def test_budget_expiry_raises_fleet_timeout(self):
        async def main():
            config = _fast_config(replicas=1)
            supervisor = ReplicaSupervisor(_thread_pool, config)
            await supervisor.start()
            try:
                with pytest.raises(FleetTimeout):
                    await supervisor.submit(
                        "k", time.sleep, 5.0, budget=DeadlineBudget(0.2)
                    )
            finally:
                await supervisor.stop()

        run(main())

    def test_no_routable_replica_raises_after_patience(self):
        async def main():
            config = _fast_config(replicas=1, route_wait=0.1)
            supervisor = ReplicaSupervisor(_thread_pool, config)
            await supervisor.start()
            try:
                # Direct Replica.evict bypasses the supervisor, so no
                # restart is scheduled and nothing becomes routable.
                supervisor.replica("r0").evict()
                with pytest.raises(NoHealthyReplica):
                    await supervisor.submit(
                        "k", _echo, 1, budget=DeadlineBudget(5.0)
                    )
            finally:
                await supervisor.stop()

        run(main())

    def test_snapshot_reports_fleet_state(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                snapshot = supervisor.snapshot()
                assert set(snapshot["replicas"]) == {"r0", "r1"}
                assert snapshot["healthy_replicas"] == 2
                assert snapshot["recent_crashes"] == 0
                entry = snapshot["replicas"]["r0"]
                assert entry["state"] == STATE_HEALTHY
                assert set(entry) == {
                    "state",
                    "generation",
                    "inflight",
                    "heartbeat_age",
                    "overruns",
                }
            finally:
                await supervisor.stop()

        run(main())

    def test_stop_does_not_count_teardown_as_eviction(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            await supervisor.stop()
            assert supervisor.metrics.counter("evictions") == 0

        run(main())

    def test_stop_then_start_again_in_a_new_loop(self):
        supervisor = ReplicaSupervisor(_thread_pool, _fast_config())

        async def one_cycle():
            await supervisor.start()
            result = await supervisor.submit(
                "k", _echo, "v", budget=DeadlineBudget(5.0)
            )
            await supervisor.stop()
            return result

        assert run(one_cycle()) == "v"
        assert run(one_cycle()) == "v"
