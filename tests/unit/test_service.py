"""Unit tests for the serving layer: coalescer, cache policy, server."""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache import clear_analysis_cache
from repro.service import (
    AnalysisService,
    Endpoint,
    RequestCoalescer,
    ServiceConfig,
    build_response_cache,
    request_fingerprint,
)

SCENARIO = {
    "field_width": 10_000.0,
    "field_height": 10_000.0,
    "num_sensors": 240,
    "sensing_range": 600.0,
    "target_speed": 10.0,
    "sensing_period": 30.0,
    "detect_prob": 0.9,
    "window": 10,
    "threshold": 3,
}


@pytest.fixture(autouse=True)
def fresh_analysis_cache():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


def run(coro):
    return asyncio.run(coro)


class _Gate:
    """A compute stub whose completion the test controls explicitly."""

    def __init__(self, result=None):
        self.calls = 0
        self._lock = threading.Lock()
        self.release = threading.Event()
        self.started = threading.Event()
        self._result = result if result is not None else {"value": 42}

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        self.started.set()
        if not self.release.wait(timeout=10):
            raise RuntimeError("gate never released")
        return dict(self._result, request=request)


def _stub_service(gate, path="/stub", **config_kwargs) -> AnalysisService:
    """A service with one gated endpoint on a thread pool (countable)."""
    endpoint = Endpoint(
        path,
        "stub",
        canonicalize=lambda payload: {"v": payload.get("v", 0)}
        if isinstance(payload, dict)
        else {"v": 0},
        compute=gate,
    )
    config = ServiceConfig(port=0, **config_kwargs)
    return AnalysisService(
        config,
        endpoints={path: endpoint},
        executor_factory=lambda: ThreadPoolExecutor(max_workers=config.workers),
    )


async def _settle(condition, timeout=5.0):
    """Await until ``condition()`` is true (event-loop friendly poll)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


class TestRequestCoalescer:
    def test_concurrent_identical_keys_share_one_computation(self):
        async def main():
            coalescer = RequestCoalescer()
            calls = []
            release = asyncio.Event()

            async def compute():
                calls.append(1)
                await release.wait()
                return "answer"

            tasks = [
                asyncio.ensure_future(coalescer.run("k", compute))
                for _ in range(8)
            ]
            await _settle(lambda: coalescer.inflight == 1)
            release.set()
            results = await asyncio.gather(*tasks)
            assert len(calls) == 1
            assert all(value == "answer" for value, _ in results)
            coalesced = [flag for _, flag in results]
            assert coalesced.count(False) == 1
            assert coalesced.count(True) == 7
            assert coalescer.inflight == 0

        run(main())

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            coalescer = RequestCoalescer()
            calls = []

            def compute_for(key):
                async def compute():
                    calls.append(key)
                    return key

                return compute

            results = await asyncio.gather(
                coalescer.run("a", compute_for("a")),
                coalescer.run("b", compute_for("b")),
            )
            assert sorted(calls) == ["a", "b"]
            assert [flag for _, flag in results] == [False, False]

        run(main())

    def test_sequential_requests_recompute(self):
        async def main():
            coalescer = RequestCoalescer()
            calls = []

            async def compute():
                calls.append(1)
                return len(calls)

            first, _ = await coalescer.run("k", compute)
            second, coalesced = await coalescer.run("k", compute)
            assert (first, second) == (1, 2)
            assert not coalesced

        run(main())

    def test_error_propagates_to_every_waiter_then_clears(self):
        async def main():
            coalescer = RequestCoalescer()
            release = asyncio.Event()

            async def explode():
                await release.wait()
                raise RuntimeError("boom")

            tasks = [
                asyncio.ensure_future(coalescer.run("k", explode))
                for _ in range(3)
            ]
            await _settle(lambda: coalescer.inflight == 1)
            release.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(result, RuntimeError) for result in results)
            assert coalescer.inflight == 0

            async def recover():
                return "fine"

            value, coalesced = await coalescer.run("k", recover)
            assert value == "fine" and not coalesced

        run(main())

    def test_cancelled_follower_does_not_cancel_the_flight(self):
        async def main():
            coalescer = RequestCoalescer()
            release = asyncio.Event()

            async def compute():
                await release.wait()
                return "survived"

            leader = asyncio.ensure_future(coalescer.run("k", compute))
            follower = asyncio.ensure_future(coalescer.run("k", compute))
            await _settle(lambda: coalescer.inflight == 1)
            follower.cancel()
            await asyncio.gather(follower, return_exceptions=True)
            release.set()
            value, coalesced = await leader
            assert value == "survived" and not coalesced

        run(main())


class TestCachePolicy:
    def test_fingerprint_ignores_key_order(self):
        canonical = {"a": 1, "b": {"x": 2.0, "y": 3}}
        shuffled = {"b": {"y": 3, "x": 2.0}, "a": 1}
        assert request_fingerprint("/analyze", canonical) == request_fingerprint(
            "/analyze", shuffled
        )

    def test_fingerprint_separates_endpoints(self):
        canonical = {"a": 1}
        assert request_fingerprint("/analyze", canonical) != request_fingerprint(
            "/sweep", canonical
        )

    def test_response_cache_is_lru_with_ttl(self):
        clock = [0.0]
        cache = build_response_cache(max_entries=2, ttl=5.0, clock=lambda: clock[0])
        cache.store("a", b"1")
        cache.store("b", b"2")
        assert cache.lookup("a") == (True, b"1")  # refresh "a"
        cache.store("c", b"3")  # evicts "b" (LRU)
        assert "b" not in cache
        assert "a" in cache
        clock[0] = 10.0
        found, _ = cache.lookup("a")
        assert not found  # expired
        assert cache.expirations == 1
        assert cache.lookups == cache.hits + cache.misses


class TestServiceComputePath:
    def test_sixty_four_concurrent_identical_requests_one_computation(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, queue_limit=128)
            body = json.dumps({"v": 7}).encode()
            tasks = [
                asyncio.ensure_future(service.dispatch("POST", "/stub", body))
                for _ in range(64)
            ]
            await _settle(
                lambda: service.metrics.counter("requests.stub") == 64
                and gate.started.is_set()
            )
            gate.release.set()
            results = await asyncio.gather(*tasks)
            statuses = [status for status, _, _ in results]
            bodies = {payload for _, _, payload in results}
            assert statuses == [200] * 64
            assert len(bodies) == 1  # byte-identical payloads
            assert gate.calls == 1  # exactly one underlying computation
            assert service.metrics.counter("computations") == 1
            assert service.metrics.counter("coalesced") == 63
            # Conservation: every request was leader, follower, or hit.
            assert (
                service.metrics.counter("computations")
                + service.metrics.counter("coalesced")
                + service.metrics.counter("cache_served")
                == 64
            )

        run(main())

    def test_cached_response_is_byte_identical_to_cold(self):
        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(gate)
            body = json.dumps({"v": 1}).encode()
            status1, headers1, cold = await service.dispatch("POST", "/stub", body)
            status2, headers2, warm = await service.dispatch("POST", "/stub", body)
            assert (status1, status2) == (200, 200)
            assert headers1["X-Repro-Cache"] == "miss"
            assert headers2["X-Repro-Cache"] == "hit"
            assert cold == warm
            assert gate.calls == 1

        run(main())

    def test_backpressure_returns_503_with_retry_after(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, queue_limit=1)
            slow = asyncio.ensure_future(
                service.dispatch("POST", "/stub", json.dumps({"v": 1}).encode())
            )
            await _settle(lambda: service.metrics.counter("requests.stub") == 1)
            # Distinct payload: must not coalesce, must hit admission.
            status, headers, payload = await service.dispatch(
                "POST", "/stub", json.dumps({"v": 2}).encode()
            )
            assert status == 503
            # Retry-After is jittered (1-3 s) so rejected clients do not
            # re-stampede the admission queue on the same second.
            assert headers["Retry-After"] in {"1", "2", "3"}
            assert b"admission queue full" in payload
            assert service.metrics.counter("rejected") == 1
            gate.release.set()
            status, _, _ = await slow
            assert status == 200
            # The server survived saturation: health still answers.
            status, _, health = await service.dispatch("GET", "/healthz")
            assert status == 200
            assert json.loads(health)["status"] == "ok"

        run(main())

    def test_cache_hit_bypasses_admission(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, queue_limit=1)
            body = json.dumps({"v": 1}).encode()
            gate.release.set()
            await service.dispatch("POST", "/stub", body)
            gate.release.clear()
            # Saturate the only admission slot with a distinct request.
            blocked = asyncio.ensure_future(
                service.dispatch("POST", "/stub", json.dumps({"v": 9}).encode())
            )
            await _settle(lambda: service.metrics.counter("requests.stub") == 2)
            # The cached request still answers instantly.
            status, headers, _ = await service.dispatch("POST", "/stub", body)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            gate.release.set()
            await blocked

        run(main())

    def test_request_timeout_gives_504_and_recycles_pool(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, request_timeout=0.2)
            status, _, payload = await service.dispatch(
                "POST", "/stub", json.dumps({"v": 1}).encode()
            )
            assert status == 504
            assert b"timeout" in payload
            assert service.metrics.counter("timeouts") == 1
            gate.release.set()  # unblock the abandoned worker thread
            # The recycled pool serves the next request normally.
            gate2 = _Gate()
            gate2.release.set()
            service._endpoints["/stub"] = Endpoint(
                "/stub", "stub", lambda p: {"v": p.get("v", 0)}, gate2
            )
            status, _, _ = await service.dispatch(
                "POST", "/stub", json.dumps({"v": 2}).encode()
            )
            assert status == 200

        run(main())

    def test_compute_error_maps_to_500_and_server_survives(self):
        async def main():
            def explode(request):
                raise RuntimeError("kernel fault")

            endpoint = Endpoint("/bad", "bad", lambda p: {}, explode)
            service = AnalysisService(
                ServiceConfig(port=0),
                endpoints={"/bad": endpoint},
                executor_factory=lambda: ThreadPoolExecutor(max_workers=1),
            )
            status, _, payload = await service.dispatch("POST", "/bad", b"{}")
            assert status == 500
            assert b"kernel fault" in payload
            status, _, _ = await service.dispatch("GET", "/healthz")
            assert status == 200

        run(main())


class TestHttpLayer:
    @staticmethod
    async def _raw_request(host, port, raw: bytes) -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
        return response

    @staticmethod
    async def _request(host, port, method, path, body=b""):
        raw = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + body
        response = await TestHttpLayer._raw_request(host, port, raw)
        head, _, payload = response.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        headers = {}
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, payload

    def test_socket_roundtrip_errors_and_health(self):
        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(gate)
            await service.start()
            host, port = service.host, service.port
            try:
                status, _, payload = await self._request(host, port, "GET", "/healthz")
                assert status == 200 and b'"status":"ok"' in payload

                status, _, _ = await self._request(host, port, "GET", "/nope")
                assert status == 404

                status, _, _ = await self._request(host, port, "DELETE", "/stub")
                assert status == 405

                status, _, payload = await self._request(
                    host, port, "POST", "/stub", b"not json"
                )
                assert status == 400 and b"not valid JSON" in payload

                status, headers, _ = await self._request(
                    host, port, "POST", "/stub", json.dumps({"v": 5}).encode()
                )
                assert status == 200 and headers["x-repro-cache"] == "miss"

                status, _, payload = await self._request(host, port, "GET", "/metrics")
                metrics = json.loads(payload)
                assert metrics["counters"]["computations"] == 1
                assert "response_cache" in metrics
            finally:
                await service.stop()

        run(main())

    def test_oversized_body_rejected(self):
        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(gate)
            service.config.max_body_bytes = 64
            await service.start()
            try:
                status, _, payload = await self._request(
                    service.host, service.port, "POST", "/stub", b"x" * 100
                )
                assert status == 413
            finally:
                await service.stop()

        run(main())

    def test_malformed_request_line_rejected(self):
        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(gate)
            await service.start()
            try:
                response = await self._raw_request(
                    service.host, service.port, b"garbage\r\n\r\n"
                )
                assert b"400" in response.split(b"\r\n", 1)[0]
            finally:
                await service.stop()

        run(main())


class TestRealEndpoints:
    def _service(self, **config_kwargs):
        return AnalysisService(
            ServiceConfig(port=0, **config_kwargs),
            executor_factory=lambda: ThreadPoolExecutor(max_workers=1),
        )

    def test_analyze_matches_direct_analysis(self):
        from repro.core.markov_spatial import MarkovSpatialAnalysis
        from repro.core.scenario import Scenario

        async def main():
            service = self._service()
            body = json.dumps({"scenario": SCENARIO}).encode()
            status, _, payload = await service.dispatch("POST", "/analyze", body)
            assert status == 200
            result = json.loads(payload)
            expected = MarkovSpatialAnalysis(
                Scenario.from_dict(SCENARIO), 3
            ).detection_probability()
            assert result["detection_probability"] == pytest.approx(expected)

        run(main())

    def test_analyze_rejects_invalid_payloads(self):
        async def main():
            service = self._service()
            cases = [
                b"[]",  # not an object
                json.dumps({"scenario": {"num_sensors": 3}}).encode(),  # missing
                json.dumps({"scenario": SCENARIO, "bogus": 1}).encode(),
                json.dumps(
                    {"scenario": SCENARIO, "body_truncation": 0}
                ).encode(),
                json.dumps(
                    {"scenario": dict(SCENARIO, window=2)}
                ).encode(),  # window <= ms
            ]
            for body in cases:
                status, _, _ = await service.dispatch("POST", "/analyze", body)
                assert status == 400, body

        run(main())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sensing_range", float("nan")),
            ("target_speed", float("inf")),
            ("num_sensors", 2.5),
            ("num_sensors", True),
            ("window", 20.5),
        ],
    )
    def test_analyze_hostile_scenario_values_are_400(self, field, value):
        """Not a 500, and never a plausible number for invalid input."""

        async def main():
            service = self._service()
            body = json.dumps({"scenario": dict(SCENARIO, **{field: value})})
            status, _, payload = await service.dispatch(
                "POST", "/analyze", body.encode()
            )
            assert status == 400, payload
            assert field in json.loads(payload)["error"]

        run(main())

    @pytest.mark.parametrize(
        "field, value",
        [("num_sensors", 10**30), ("num_sensors", 2**63), ("threshold", 10**20)],
    )
    def test_analyze_oversized_counts_are_400(self, field, value):
        """Counts past int64 are a typed 400, not the engine's OverflowError."""

        async def main():
            service = self._service()
            body = json.dumps({"scenario": dict(SCENARIO, **{field: value})})
            status, _, payload = await service.dispatch(
                "POST", "/analyze", body.encode()
            )
            assert status == 400, payload
            assert "64-bit" in json.loads(payload)["error"]

        run(main())

    @pytest.mark.parametrize("parameter", ["num_sensors", "threshold"])
    def test_sweep_oversized_count_value_is_400(self, parameter):
        async def main():
            service = self._service()
            body = json.dumps(
                {"scenario": SCENARIO, "parameter": parameter, "values": [3, 10**30]}
            )
            status, _, payload = await service.dispatch(
                "POST", "/sweep", body.encode()
            )
            assert status == 400, payload
            assert "64-bit" in json.loads(payload)["error"]

        run(main())

    def test_simulate_matches_direct_run_and_caps_trials(self):
        from repro.core.scenario import Scenario
        from repro.simulation.runner import MonteCarloSimulator

        async def main():
            service = self._service()
            body = json.dumps(
                {"scenario": SCENARIO, "trials": 300, "seed": 9}
            ).encode()
            status, _, payload = await service.dispatch("POST", "/simulate", body)
            assert status == 200
            result = json.loads(payload)
            direct = MonteCarloSimulator(
                Scenario.from_dict(SCENARIO), trials=300, seed=9
            ).run()
            assert result["detection_probability"] == pytest.approx(
                direct.detection_probability
            )
            status, _, payload = await service.dispatch(
                "POST",
                "/simulate",
                json.dumps({"scenario": SCENARIO, "trials": 10**9}).encode(),
            )
            assert status == 400
            assert b"trials" in payload

        run(main())

    def test_sweep_rows_cover_requested_values(self):
        async def main():
            service = self._service()
            body = json.dumps(
                {
                    "scenario": SCENARIO,
                    "parameter": "threshold",
                    "values": [1, 3, 5],
                }
            ).encode()
            status, _, payload = await service.dispatch("POST", "/sweep", body)
            assert status == 200
            result = json.loads(payload)
            assert [row["threshold"] for row in result["rows"]] == [1, 3, 5]
            probabilities = [
                row["detection_probability"] for row in result["rows"]
            ]
            assert probabilities == sorted(probabilities, reverse=True)

        run(main())

    def test_batched_sweep_axis_matches_scalar_analysis(self):
        """``num_sensors`` sweeps take the one-grid-call batched path in
        the handler; each row must still match the Eq. 12 matrix oracle."""
        from repro.core.scenario import Scenario
        from tests.markov_oracles import matrix_detection_probability

        async def main():
            service = self._service()
            counts = [60, 120, 240]
            body = json.dumps(
                {
                    "scenario": SCENARIO,
                    "parameter": "num_sensors",
                    "values": counts,
                }
            ).encode()
            status, _, payload = await service.dispatch("POST", "/sweep", body)
            assert status == 200
            rows = json.loads(payload)["rows"]
            assert [row["num_sensors"] for row in rows] == counts
            for row in rows:
                scenario = Scenario.from_dict(
                    {**SCENARIO, "num_sensors": row["num_sensors"]}
                )
                reference = matrix_detection_probability(scenario, 3)
                assert row["detection_probability"] == pytest.approx(
                    reference, abs=1e-12
                )

        run(main())

    def test_equivalent_payload_spellings_share_a_cache_line(self):
        async def main():
            service = self._service()
            spelled = json.dumps(
                {"scenario": SCENARIO, "body_truncation": 3, "substeps": 1}
            ).encode()
            bare = json.dumps(
                {"scenario": dict(reversed(list(SCENARIO.items())))}
            ).encode()
            status, headers, cold = await service.dispatch(
                "POST", "/analyze", spelled
            )
            assert (status, headers["X-Repro-Cache"]) == (200, "miss")
            status, headers, warm = await service.dispatch(
                "POST", "/analyze", bare
            )
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            assert cold == warm

        run(main())


class TestSimulateSweep:
    """The /simulate ``sweep`` sub-object: one fused pass per axis."""

    def _service(self, **config_kwargs):
        return AnalysisService(
            ServiceConfig(port=0, **config_kwargs),
            executor_factory=lambda: ThreadPoolExecutor(max_workers=1),
        )

    def test_canonical_form_always_carries_sweep_key(self):
        from repro.service.handlers import canonicalize_simulate

        plain = canonicalize_simulate({"scenario": SCENARIO, "trials": 10})
        assert plain["sweep"] is None
        swept = canonicalize_simulate(
            {
                "scenario": SCENARIO,
                "trials": 10,
                "sweep": {"parameter": "threshold", "values": [1, 3.0]},
            }
        )
        assert swept["sweep"] == {"parameter": "threshold", "values": [1, 3]}

    def test_sweep_rows_match_fused_engine(self):
        from repro.core.scenario import Scenario
        from repro.simulation.fused import FusedMonteCarloEngine

        async def main():
            service = self._service()
            body = json.dumps(
                {
                    "scenario": SCENARIO,
                    "trials": 200,
                    "seed": 9,
                    "sweep": {
                        "parameter": "num_sensors",
                        "values": [60, 240],
                    },
                }
            ).encode()
            status, _, payload = await service.dispatch(
                "POST", "/simulate", body
            )
            assert status == 200
            result = json.loads(payload)
            assert result["parameter"] == "num_sensors"
            assert [row["num_sensors"] for row in result["rows"]] == [60, 240]
            direct = FusedMonteCarloEngine(
                Scenario.from_dict(SCENARIO),
                num_sensors=[60, 240],
                thresholds=[SCENARIO["threshold"]],
                trials=200,
                seed=9,
            ).run()
            detections = direct.detections_grid()[:, 0]
            for row, expected in zip(result["rows"], detections):
                assert row["detections"] == int(expected)
                assert row["detection_probability"] == pytest.approx(
                    expected / 200
                )
                low, high = row["confidence_interval"]
                assert low <= row["detection_probability"] <= high

        run(main())

    def test_sweep_validation_rejections(self):
        async def main():
            service = self._service()

            async def status_of(sweep):
                body = json.dumps(
                    {"scenario": SCENARIO, "trials": 10, "sweep": sweep}
                ).encode()
                status, _, payload = await service.dispatch(
                    "POST", "/simulate", body
                )
                return status, payload

            for sweep, fragment in [
                ({"parameter": "detect_prob", "values": [0.5]}, b"parameter"),
                ({"parameter": "threshold", "values": []}, b"non-empty"),
                ({"parameter": "threshold", "values": [1.5]}, b"integers"),
                ({"parameter": "num_sensors", "values": [0]}, b"invalid"),
                ({"parameter": "threshold", "values": [1], "x": 1}, b"x"),
                (
                    {
                        "parameter": "threshold",
                        "values": list(range(1, 300)),
                    },
                    b"points",
                ),
            ]:
                status, payload = await status_of(sweep)
                assert status == 400, sweep
                assert fragment in payload, (sweep, payload)

        run(main())

    @pytest.mark.parametrize(
        "parameter, values",
        [("num_sensors", [60, 120, 240]), ("threshold", [1, 3, 5])],
    )
    def test_degraded_sweep_rows_are_degraded_sweep_endpoint_rows(
        self, parameter, values
    ):
        from repro.service.handlers import (
            approximate_simulate,
            approximate_sweep,
            canonicalize_simulate,
            canonicalize_sweep,
        )

        axis = {"parameter": parameter, "values": values}
        degraded = approximate_simulate(
            canonicalize_simulate(
                {"scenario": SCENARIO, "trials": 10, "sweep": axis}
            )
        )
        reference = approximate_sweep(
            canonicalize_sweep({"scenario": SCENARIO, **axis})
        )
        assert degraded["parameter"] == parameter
        assert json.dumps(degraded["rows"], sort_keys=True) == json.dumps(
            reference["rows"], sort_keys=True
        )


class TestFleetServing:
    """Service-level behavior of the supervised replica fleet."""

    @staticmethod
    def _conserved(service, total):
        """The request-conservation invariant under faults."""
        served = (
            service.metrics.counter("computations")
            + service.metrics.counter("coalesced")
            + service.metrics.counter("cache_served")
            + service.metrics.counter("degraded")
        )
        return served == total

    def test_mid_flight_eviction_reroutes_instead_of_leaking(self):
        """Regression: a replica evicted mid-flight must not strand its
        in-flight requests — they re-route with the remaining budget."""

        async def main():
            gate = _Gate()
            service = _stub_service(gate, replicas=2)
            await service.supervisor.start()
            key = request_fingerprint("/stub", {"v": 1})
            owner = service.supervisor._router.route(key)
            task = asyncio.ensure_future(
                service.dispatch("POST", "/stub", json.dumps({"v": 1}).encode())
            )
            victim = service.supervisor.replica(owner)
            await _settle(lambda: victim.inflight > 0)
            service.supervisor._evict(victim, reason="test")
            # The re-routed attempt is the gate's second call; release
            # only after it has started so the first attempt provably
            # died to the eviction, not to a fast completion.
            await _settle(lambda: gate.calls == 2)
            gate.release.set()
            status, headers, payload = await task
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"
            assert "X-Repro-Degraded" not in headers
            assert json.loads(payload)["request"] == {"v": 1}
            fleet = service.supervisor.metrics
            assert fleet.counter("reroutes") == 1
            assert fleet.counter("evictions") == 1
            assert service.metrics.counter("computations") == 1
            assert self._conserved(service, 1)
            await service.stop()

        run(main())

    def test_degraded_stale_cache_serving(self):
        """With no healthy replica, an expired cache entry is re-served
        flagged ``degraded`` instead of failing the request."""

        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(
                gate, replicas=1, cache_ttl=0.05, route_wait=0.05
            )
            body = json.dumps({"v": 1}).encode()
            status, _, fresh = await service.dispatch("POST", "/stub", body)
            assert status == 200
            # Kill routability without triggering a supervised restart.
            service.supervisor.replica("r0").evict()
            await asyncio.sleep(0.1)  # let the cache entry expire
            status, headers, payload = await service.dispatch(
                "POST", "/stub", body
            )
            assert status == 200
            assert headers["X-Repro-Degraded"] == "stale"
            degraded = json.loads(payload)
            assert degraded["degraded"] is True
            pristine = json.loads(fresh)
            pristine.pop("degraded", None)
            degraded.pop("degraded")
            assert degraded == pristine, "stale body matches the original"
            assert service.metrics.counter("degraded") == 1
            assert service.metrics.counter("degraded_stale") == 1
            assert self._conserved(service, 2)
            # Degraded bodies are never cached: the flag would otherwise
            # shadow the real answer after the fleet recovers.
            found, _ = service.response_cache.lookup(
                request_fingerprint("/stub", {"v": 1})
            )
            assert not found
            await service.stop()

        run(main())

    def test_degraded_approximation_when_cache_is_cold(self):
        async def main():
            gate = _Gate()
            endpoint = Endpoint(
                "/stub",
                "stub",
                canonicalize=lambda p: {"v": p.get("v", 0)},
                compute=gate,
                approximate=lambda canonical: {"estimate": canonical["v"] + 1},
            )
            config = ServiceConfig(port=0, route_wait=0.05)
            service = AnalysisService(
                config,
                endpoints={"/stub": endpoint},
                executor_factory=lambda: ThreadPoolExecutor(max_workers=1),
            )
            await service.supervisor.start()
            service.supervisor.replica("r0").evict()
            status, headers, payload = await service.dispatch(
                "POST", "/stub", json.dumps({"v": 4}).encode()
            )
            assert status == 200
            assert headers["X-Repro-Degraded"] == "approximation"
            result = json.loads(payload)
            assert result == {"degraded": True, "estimate": 5}
            assert service.metrics.counter("degraded_approximations") == 1
            assert self._conserved(service, 1)
            await service.stop()

        run(main())

    def test_unserved_degradation_returns_503_with_retry_after(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, replicas=1, route_wait=0.05)
            await service.supervisor.start()
            service.supervisor.replica("r0").evict()
            status, headers, payload = await service.dispatch(
                "POST", "/stub", json.dumps({"v": 1}).encode()
            )
            assert status == 503
            assert headers["Retry-After"] in {"1", "2", "3"}
            assert b"no healthy compute replica" in payload
            assert service.metrics.counter("unserved") == 1
            await service.stop()

        run(main())

    def test_readiness_tracks_healthy_replica_count(self):
        async def main():
            gate = _Gate()
            service = _stub_service(gate, replicas=2)
            await service.supervisor.start()
            status, _, payload = await service.dispatch("GET", "/readyz")
            ready = json.loads(payload)
            assert (status, ready["status"]) == (200, "ready")
            assert ready["healthy_replicas"] == 2
            # Liveness stays green while readiness goes red.
            for replica_id in service.supervisor.replica_ids():
                service.supervisor.replica(replica_id).evict()
            status, headers, payload = await service.dispatch("GET", "/readyz")
            unready = json.loads(payload)
            assert (status, unready["status"]) == (503, "unready")
            assert headers["Retry-After"] in {"1", "2", "3"}
            assert unready["healthy_replicas"] == 0
            status, _, _ = await service.dispatch("GET", "/healthz")
            assert status == 200
            await service.stop()

        run(main())

    def test_metrics_exposes_fleet_snapshot(self):
        async def main():
            gate = _Gate()
            gate.release.set()
            service = _stub_service(gate, replicas=2)
            await service.dispatch(
                "POST", "/stub", json.dumps({"v": 1}).encode()
            )
            _, _, payload = await service.dispatch("GET", "/metrics")
            fleet = json.loads(payload)["fleet"]
            assert set(fleet["replicas"]) == {"r0", "r1"}
            assert fleet["healthy_replicas"] == 2
            await service.stop()

        run(main())
