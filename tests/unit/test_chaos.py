"""Unit tests for the chaos-injection harness (actions, scripts, runs)."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chaos import (
    ChaosAction,
    ChaosHarness,
    ChaosScript,
    KINDS,
    hang,
    kill,
)
from repro.service import FleetConfig, ReplicaSupervisor


def run(coro):
    return asyncio.run(coro)


def _thread_pool():
    return ThreadPoolExecutor(max_workers=1)


def _fast_config(**overrides) -> FleetConfig:
    defaults = dict(
        replicas=2,
        heartbeat_interval=0.05,
        probe_timeout=0.5,
        warmup_timeout=5.0,
        route_wait=0.5,
        restart_backoff_base=0.01,
        restart_backoff_cap=0.05,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestChaosAction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosAction(at=0.0, kind="explode")

    def test_rejects_negative_offset_and_duration(self):
        with pytest.raises(ValueError):
            ChaosAction(at=-1.0, kind="kill")
        with pytest.raises(ValueError):
            ChaosAction(at=0.0, kind="hang", duration=-2.0)

    def test_fault_counts_per_kind(self):
        assert kill(0.0).fault_count == 1
        assert hang(0.0, 1.0).fault_count == 1

    def test_builders_cover_every_kind(self):
        assert {kill(0.0).kind, hang(0.0, 1.0).kind} == set(KINDS)


class TestChaosScript:
    def test_actions_are_replayed_in_offset_order(self):
        script = ChaosScript(actions=(kill(2.0), hang(0.5, 1.0), kill(1.0)))
        assert [a.at for a in script.actions] == [0.5, 1.0, 2.0]

    def test_fault_count_totals_the_actions(self):
        script = ChaosScript(
            actions=(
                kill(0.0),
                hang(0.1, 1.0),
                kill(0.2),
            )
        )
        assert script.fault_count() == 3

    def test_to_dict_round_trips_the_schedule(self):
        script = ChaosScript(actions=(kill(0.5, replica="r1"),), seed=9)
        payload = script.to_dict()
        assert payload["seed"] == 9
        assert payload["fault_count"] == 1
        assert payload["actions"] == [
            {"at": 0.5, "kind": "kill", "replica": "r1", "duration": 0.0}
        ]


class TestChaosHarness:
    def test_kill_script_is_detected_and_repaired(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                script = ChaosScript(
                    actions=(kill(0.0, replica="r0"), kill(0.05, replica="r1"))
                )
                report = await ChaosHarness(supervisor, script).run()
                assert report.fault_count == 2
                assert [entry["kind"] for entry in report.injected] == [
                    "kill",
                    "kill",
                ]
                assert report.counters["kills"] == 2
                assert report.counters["injected"] == 2
                deadline = time.monotonic() + 10.0
                while (
                    supervisor.metrics.counter("restarts") < 2
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert supervisor.metrics.counter("evictions") == 2
                assert supervisor.metrics.counter("restarts") == 2
                assert supervisor.healthy_count() == 2
            finally:
                await supervisor.stop()

        run(main())

    def test_slow_action_wedges_without_eviction(self):
        async def main():
            supervisor = ReplicaSupervisor(
                _thread_pool,
                # Probe timeout comfortably above the wedge: a briefly
                # wedged replica answers late but answers, so no eviction.
                _fast_config(probe_timeout=5.0, heartbeat_interval=0.05),
            )
            await supervisor.start()
            try:
                script = ChaosScript(actions=(hang(0.0, 0.2, replica="r0"),))
                await ChaosHarness(supervisor, script).run()
                await asyncio.sleep(0.5)
                assert supervisor.metrics.counter("evictions") == 0
            finally:
                await supervisor.stop()

        run(main())

    def test_targetless_actions_draw_from_the_script_seed(self):
        async def main():
            supervisor = ReplicaSupervisor(
                _thread_pool, _fast_config(replicas=3)
            )
            await supervisor.start()
            try:
                script = ChaosScript(actions=(kill(0.0), kill(0.02)), seed=11)
                report = await ChaosHarness(supervisor, script).run()
                return [entry["replica"] for entry in report.injected]
            finally:
                await supervisor.stop()

        first = run(main())
        second = run(main())
        assert first == second, "seeded target draws must be reproducible"

    def test_report_serializes_for_artifacts(self):
        async def main():
            supervisor = ReplicaSupervisor(_thread_pool, _fast_config())
            await supervisor.start()
            try:
                script = ChaosScript(actions=(kill(0.0, replica="r0"),))
                report = await ChaosHarness(supervisor, script).run()
                payload = report.to_dict()
                assert payload["script"]["fault_count"] == 1
                assert payload["counters"]["kills"] == 1
                assert payload["duration_seconds"] >= 0.0
                assert len(payload["injected"]) == 1
            finally:
                await supervisor.stop()

        run(main())
