"""``serve-mix``: a closed-loop API client mix against ``repro serve``.

Two client threads (API callers each wait for their reply) drive a
``repro serve --replicas 1 --workers 1`` process over loopback HTTP with
a seeded list of requests: ~55% ``/analyze`` on fresh geometries, ~25%
exact repeats of earlier bodies, ~12% ``/sweep`` over the N axis and ~8%
small-trial ``/simulate``.  It is the only workload where wire handling,
validation, the response cache (misses that write next to hits that
read), coalescing and replica IPC sit on the blocking path.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import harness

#: Requests per second of ``--seconds`` the fixed request list holds.
REQUESTS_PER_SECOND = 200
CONNECTIONS = 2
SWEEP_VALUES = list(range(60, 241, 20))

Request = Tuple[str, bytes]


def make_requests(seed: int, count: int) -> List[Request]:
    """The seeded request list: ``(path, body bytes)`` in send order."""
    from repro import onr_scenario

    rng = np.random.default_rng(seed)
    base = onr_scenario().to_dict()

    def scenario() -> Dict:
        point = dict(base)
        # V in [4, 16] m/s and Rs in [600, 1200] m keep ms <= 10 < M = 20.
        point["target_speed"] = round(float(rng.uniform(4.0, 16.0)), 6)
        point["sensing_range"] = round(float(rng.uniform(600.0, 1200.0)), 3)
        point["num_sensors"] = int(rng.integers(60, 241))
        return point

    requests: List[Request] = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.25 and requests:
            requests.append(requests[int(rng.integers(len(requests)))])
            continue
        if draw < 0.12 + 0.25:
            path, payload = "/sweep", {
                "scenario": scenario(),
                "parameter": "num_sensors",
                "values": SWEEP_VALUES,
            }
        elif draw < 0.20 + 0.25:
            path, payload = "/simulate", {
                "scenario": scenario(),
                "trials": int(rng.integers(32, 65)),
                "seed": int(rng.integers(1 << 30)),
            }
        else:
            path, payload = "/analyze", {"scenario": scenario()}
        requests.append((path, json.dumps(payload).encode("utf-8")))
    return requests


def warmup_requests() -> List[Request]:
    """One request per endpoint, outside the mix: lazy imports happen here."""
    from repro import onr_scenario

    point = onr_scenario(num_sensors=150, speed=7.5).to_dict()
    return [
        ("/analyze", json.dumps({"scenario": point}).encode()),
        ("/sweep", json.dumps({"scenario": point, "parameter": "num_sensors",
                               "values": SWEEP_VALUES}).encode()),
        ("/simulate", json.dumps({"scenario": point, "trials": 16,
                                  "seed": 1}).encode()),
    ]


class Reply:
    __slots__ = ("status", "cache", "body", "start", "end")

    def __init__(self, status, cache, body, start, end):
        self.status = status
        self.cache = cache
        self.body = body
        self.start = start
        self.end = end

    @property
    def seconds(self) -> float:
        return self.end - self.start


def drive(
    server: harness.ServerProcess,
    requests: List[Request],
    connections: int = CONNECTIONS,
) -> Tuple[List[Reply], float]:
    """Closed loop: each connection sends its next request after a reply."""
    replies: List[Optional[Reply]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                path, body = requests[index]
                start = time.perf_counter()
                status, headers, payload = server.request("POST", path, body)
                end = time.perf_counter()
                replies[index] = Reply(
                    status, headers.get("X-Repro-Cache"), payload, start, end
                )
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return replies, wall


def expected_bodies(
    requests: List[Request], tracer: Optional[harness.Tracer] = None
) -> Dict[Request, bytes]:
    """In-process ``Endpoint.compute`` of each distinct canonical request."""
    from repro.service.handlers import ENDPOINTS
    from repro.service.transport import json_body

    expected: Dict[Request, bytes] = {}
    for request in requests:
        if request in expected:
            continue
        path, body = request
        endpoint = ENDPOINTS[path]
        canonical = endpoint.canonicalize(json.loads(body))
        if tracer is None:
            expected[request] = json_body(endpoint.compute(canonical))
            continue
        tracer.trace = request
        with tracer.span(f"handlers.compute_{endpoint.name}"):
            result = endpoint.compute(canonical)
        expected[request] = json_body(result)
    return expected


def verify(
    outcome: harness.Outcome,
    requests: List[Request],
    replies: List[Reply],
    expected: Dict[Request, bytes],
) -> None:
    """Every reply is 200; a first answer equals in-process compute, and a
    repeated body (a cache hit or coalesced follower) equals the first
    answer byte for byte."""
    first: Dict[Request, bytes] = {}
    for index, (request, reply) in enumerate(zip(requests, replies)):
        what, operation = f"request {index} {request[0]}", [index]
        if not outcome.check(reply.status == 200, f"{what} -> {reply.status}",
                             operation):
            continue
        if request in first:
            outcome.check(reply.body == first[request],
                          f"{what}: repeat is not byte-identical to the first answer",
                          operation)
        else:
            first[request] = reply.body
            outcome.check(reply.body == expected[request],
                          f"{what}: body differs from in-process compute", operation)


def serve(
    requests: List[Request],
    connections: int = CONNECTIONS,
    trace_file: Optional[Path] = None,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[Reply], float, float, harness.PeakRss]:
    """One pass on a fresh server: ``(replies, wall, setup seconds, rss)``.

    The list is sent in consecutive segments; ``between`` runs after each
    segment but the last, outside the timed wall.
    """
    with harness.ServerProcess(trace=trace_file) as server:
        setup = server.start()
        for path, body in warmup_requests():
            server.request("POST", path, body)
        replies, wall = [], 0.0
        with harness.PeakRss(server.proc.pid) as rss:
            parts = harness.segments(requests)
            for number, part in enumerate(parts, start=1):
                part_replies, part_wall = drive(server, part, connections)
                replies += part_replies
                wall += part_wall
                if between is not None and number < len(parts):
                    between()
    return replies, wall, setup, rss


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    outcome = harness.Outcome()
    count = max(8, int(round(seconds * REQUESTS_PER_SECOND)))
    requests = make_requests(seed, count)
    outcome.attempted = len(requests)

    setups: List[float] = []
    replies, wall, setup, rss = serve(
        requests,
        between=None if trace else
        lambda: setups.append(harness.server_cold_start(stream=False)),
    )
    setups.append(setup)
    latencies = [reply.seconds for reply in replies]
    outcome.processes = rss.max_processes
    outcome.threads = rss.max_threads

    if trace:
        harness.OUT.mkdir(parents=True, exist_ok=True)
        trace_file = harness.OUT / "serve-mix.trace.jsonl"
        traced, traced_wall, _, _ = serve(requests, trace_file=trace_file)
        counters = harness.read_manifest(trace_file)["counters"]
        alone, _, _, _ = serve(requests, connections=1)
        tracer = harness.Tracer()
        dispatched = _replay_dispatch(requests, tracer)
        expected = expected_bodies(requests, tracer)
        for observed in (replies, traced, alone):
            verify(outcome, requests, observed, expected)
        _layers(outcome, requests, replies, alone, dispatched, tracer,
                counters, traced_wall / wall)
        outcome.metric("tail.p99_ms", harness.percentile(latencies, 99) * 1e3, "ms")
        return outcome

    verify(outcome, requests, replies, expected_bodies(requests))
    outcome.notes.append(
        f"{len(latencies)} requests over {CONNECTIONS} connections: p50 over "
        f"{len(latencies)} samples, p99 "
        f"{harness.percentile(latencies, 99) * 1e3:.2f} ms; setup_s median of "
        f"{len(setups)} cold starts"
    )
    outcome.metric("setup_s", harness.median(setups), "s")
    outcome.metric("peak_rss_mb", rss.peak_mb, "MB")
    outcome.metric("throughput_per_s", len(requests) / wall, "1/s")
    outcome.metric("p50_ms", harness.median(latencies) * 1e3, "ms")
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _replay_dispatch(
    requests: List[Request], tracer: harness.Tracer
) -> List[Tuple[float, Optional[str]]]:
    """Socketless ``AnalysisService.dispatch`` of the same list, in order.

    Alongside, the loop-side layers are timed on their own: endpoint
    canonicalisation and the request fingerprint.
    """
    from repro.service import AnalysisService, ServiceConfig
    from repro.service.cache_policy import request_fingerprint
    from repro.service.handlers import ENDPOINTS

    async def replay() -> List[Tuple[float, Optional[str]]]:
        service = AnalysisService(ServiceConfig(port=0, workers=1, replicas=1))
        try:
            await service.dispatch("GET", "/healthz")
            for path, body in warmup_requests():
                await service.dispatch("POST", path, body)
            out = []
            for path, body in requests:
                start = time.perf_counter()
                _, headers, _ = await service.dispatch("POST", path, body)
                out.append((time.perf_counter() - start,
                            headers.get("X-Repro-Cache")))
            return out
        finally:
            await service.stop()

    dispatched = asyncio.run(replay())
    for index, (path, body) in enumerate(requests):
        endpoint = ENDPOINTS[path]
        tracer.trace = index
        payload = json.loads(body)
        with tracer.span(f"handlers.canonicalize.{endpoint.name}"):
            canonical = endpoint.canonicalize(payload)
        with tracer.span("cache_policy.fingerprint"):
            request_fingerprint(path, canonical)
    return dispatched


def _by_trace(tracer: harness.Tracer, prefix: str) -> Dict[Any, float]:
    return {span.trace: span.duration for span in tracer.spans
            if span.name.startswith(prefix)}


def _layers(outcome, requests, replies, alone, dispatched, tracer, counters,
            overhead) -> None:
    """Attribute the closed loop's request time to layers.

    ``replies`` come from the measured two-connection loop, ``alone`` from
    the same list sent over one connection (so no request waits behind
    another for the single worker), ``dispatched`` from the socketless
    replay.  Per request: queue wait = two-connection minus one-connection
    latency; transport = one-connection latency minus dispatch; on a miss,
    IPC = dispatch minus compute, canonicalisation and fingerprint.
    """
    from repro.service.handlers import ENDPOINTS

    canonicalize = _by_trace(tracer, "handlers.canonicalize.")
    fingerprint = _by_trace(tracer, "cache_policy.fingerprint")
    compute = _by_trace(tracer, "handlers.compute_")
    wait, transport, ipc, ipc_residual = [], [], [], []
    for index, (request, reply, single, (dispatch, cache)) in enumerate(
        zip(requests, replies, alone, dispatched)
    ):
        wait.append(reply.seconds - single.seconds)
        transport.append(single.seconds - dispatch)
        if cache == "miss":
            ipc.append(dispatch - compute[request])
            ipc_residual.append(dispatch - compute[request]
                                - canonicalize[index] - fingerprint[index])
    miss_compute = sum(compute[request] for request, (_, cache)
                       in zip(requests, dispatched) if cache == "miss")
    total = sum(reply.seconds for reply in replies)
    rows = [
        ("replica.queue_wait", len(wait), sum(wait)),
        ("transport.http", len(transport), sum(transport)),
        ("handlers.canonicalize", len(canonicalize), sum(canonicalize.values())),
        ("cache_policy.fingerprint", len(fingerprint), sum(fingerprint.values())),
        ("handlers.compute (misses)", len(ipc), miss_compute),
        ("replica.ipc (misses)", len(ipc), sum(ipc_residual)),
    ]
    remainder = harness.print_layer_table("serve-mix", rows, total)

    requests_total = sum(counters.get(f"service.requests.{endpoint.name}", 0)
                         for endpoint in ENDPOINTS.values())
    print("obs counters (server manifest): " + json.dumps(
        {k: v for k, v in sorted(counters.items())
         if k.startswith(("service.", "batch.", "mc.", "kernel."))}))

    outcome.metric("transport.http_ms", harness.median(transport) * 1e3, "ms")
    outcome.metric("replica.queue_wait_ms", harness.median(wait) * 1e3, "ms")
    outcome.metric("service.dispatch_ms",
                   harness.median([d for d, _ in dispatched]) * 1e3, "ms")
    for endpoint in ENDPOINTS.values():
        name = endpoint.name
        times = [canonicalize[index] for index, (path, _) in enumerate(requests)
                 if path == endpoint.path]
        outcome.metric(f"handlers.canonicalize_us.{name}",
                       harness.median(times) * 1e6 if times else 0.0, "us")
        computed = tracer.durations(f"handlers.compute_{name}")
        outcome.metric(f"handlers.compute_{name}_ms",
                       harness.median(computed) * 1e3 if computed else 0.0, "ms")
    outcome.metric("cache_policy.fingerprint_us",
                   harness.median(list(fingerprint.values())) * 1e6, "us")
    outcome.metric("cache_policy.hit_ratio",
                   counters.get("service.cache_served", 0) / max(1, requests_total),
                   "ratio")
    outcome.metric("coalescer.coalesced", counters.get("service.coalesced", 0), "count")
    outcome.metric("replica.ipc_ms", harness.median(ipc) * 1e3 if ipc else 0.0, "ms")
    outcome.metric("service.response_bytes",
                   sum(len(reply.body) for reply in replies) / len(replies), "bytes")
    outcome.metric("service.unattributed_share", remainder, "ratio")
    outcome.metric("obs.tracing_overhead", overhead, "ratio")
