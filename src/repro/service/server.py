"""The service orchestration layer: admission, coalescing, caching, fleet.

``repro serve`` turns the library into a long-lived analysis service
built from three seams:

* **transport** (:mod:`repro.service.transport`) — HTTP/1.1 plumbing
  over asyncio streams; knows nothing about endpoints or replicas;
* **router** (:mod:`repro.service.router`) — consistent hashing of
  request fingerprints onto replicas, so singleflight coalescing and
  warm caches work per shard with minimal remapping on membership
  change;
* **compute pool** (:mod:`repro.service.supervisor`) — N supervised
  process-backed replicas with heartbeat monitoring, eviction on the
  first fault + backoff restart, and per-request deadline budgets.

Request lifecycle for a compute endpoint (``/analyze``, ``/simulate``,
``/sweep``)::

    parse JSON -> canonicalize (400 on bad input)
      -> fingerprint -> response-cache lookup --hit--> cached bytes
      -> admission check --full--> 503 + jittered Retry-After
      -> coalescer singleflight --follower--> leader's bytes
      -> leader: supervised fleet -> serialise once -> cache store
           \\-- no healthy replica --> degraded serving:
                 stale cache entry or analytical approximation,
                 flagged "degraded": true (503 only as a last resort)

Graceful degradation is the serving-tier analogue of the paper's thesis
— the group keeps detecting when individual members fail: a request
that cannot reach a healthy replica is answered from the stale response
reserve or by the endpoint's cheap analytical approximation rather than
refused.

Liveness and readiness are distinct: ``GET /healthz`` answers 200
whenever the event loop is alive (restarting the process won't fix a
sick replica), while ``GET /readyz`` reflects the healthy-replica count
and the recent pool-crash rate, going 503 when the fleet cannot deliver
non-degraded answers.

Observability: every counter and gauge mirrors into the active
:mod:`repro.obs` instrumentation (``service.*`` from this layer,
``fleet.*`` from the supervisor), so ``repro serve --trace`` manifests
carry request/coalescing/cache/fleet totals; the live values are always
available from ``GET /metrics`` even without a trace.

Request conservation: every compute request that yields a 200 is
accounted to exactly one of ``computations`` (a fleet computation ran),
``coalesced`` (follower of a flight), ``cache_served`` (fresh cache
hit), or ``degraded`` (stale/approximate fallback) — so
``computations + coalesced + cache_served + degraded`` equals the
number of 200-answered compute requests.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.cache import analysis_cache
from repro.service import cache_policy
from repro.service.cache_policy import build_response_cache, request_fingerprint
from repro.service.coalescer import RequestCoalescer
from repro.service.handlers import ENDPOINTS, MODEL_ERRORS, RequestError
from repro.service.metrics import MetricsTable
from repro.service.resilience import DeadlineBudget
from repro.service.supervisor import (
    CRASH_WINDOW,
    FLEET_SEED,
    FleetConfig,
    FleetExhausted,
    FleetTimeout,
    NoHealthyReplica,
    ReplicaSupervisor,
)
from repro.service.transport import (
    HttpError,
    HttpTransport,
    StreamTransport,
    StreamingResponse,
    json_body as _json_body,
)
from repro.streaming.hub import StreamHub

__all__ = ["AnalysisService", "ServiceConfig", "run_service"]

#: Healthy replicas ``/readyz`` requires to report ready.
MIN_READY_REPLICAS = 1

#: Evictions within :data:`~repro.service.supervisor.CRASH_WINDOW`
#: beyond which ``/readyz`` reports unready (a crash-looping fleet).
MAX_RECENT_CRASHES = 8


@dataclass
class ServiceConfig:
    """Capacity and policy knobs for one :class:`AnalysisService`.

    Args:
        host: bind address.
        port: bind port; ``0`` lets the OS choose (the chosen port is
            announced on stdout and available as ``service.port``).
        workers: process-pool size *per replica*.
        replicas: supervised compute replicas (each its own pool).
        queue_limit: maximum compute requests in the house at once
            (running + queued + coalesced followers); excess requests
            get 503 + jittered ``Retry-After``.
        cache_entries: response-cache LRU bound.
        cache_ttl: optional response time-to-live in seconds.
        request_timeout: per-request wall-clock budget in seconds,
            spent across every retry/re-route; exhausted budget
            answers 504.
        attempt_timeout: optional per-*attempt* bound; a replica that
            eats a whole attempt without answering is recycled and the
            request re-routes on its remaining budget.  ``None``
            (default) lets one attempt spend the full budget.
        max_body_bytes: request-body size cap (413 beyond it).
        heartbeat_interval / probe_timeout / warmup_timeout /
        route_wait: fleet health knobs (see
            :class:`repro.service.supervisor.FleetConfig`).
        stream_port: when set, additionally binds the report-stream
            ingest listener (framed NDJSON over TCP; ``0`` picks a free
            port) and enables ``GET /subscribe`` event fan-out.
        subscriber_queue: per-subscriber bound on undelivered fan-out
            frames; a subscriber that falls this far behind is evicted
            (``stream.subscriber_evictions``).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    replicas: int = 1
    queue_limit: int = 64
    cache_entries: int = cache_policy.DEFAULT_CACHE_ENTRIES
    cache_ttl: Optional[float] = cache_policy.DEFAULT_CACHE_TTL
    request_timeout: float = 60.0
    attempt_timeout: Optional[float] = None
    max_body_bytes: int = 1 << 20
    heartbeat_interval: float = 0.5
    probe_timeout: float = 5.0
    warmup_timeout: float = 30.0
    route_wait: float = 1.0
    stream_port: Optional[int] = None
    subscriber_queue: int = 64

    def __post_init__(self) -> None:
        if self.subscriber_queue < 1:
            raise ValueError(
                f"subscriber_queue must be >= 1, got {self.subscriber_queue}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )

    def fleet_config(self) -> FleetConfig:
        """The supervisor-facing slice of this configuration."""
        return FleetConfig(
            replicas=self.replicas,
            attempt_timeout=self.attempt_timeout,
            route_wait=self.route_wait,
            heartbeat_interval=self.heartbeat_interval,
            probe_timeout=self.probe_timeout,
            warmup_timeout=self.warmup_timeout,
        )


class AnalysisService:
    """The orchestration layer: one event loop, one fleet, one cache.

    Args:
        config: capacity/policy knobs.
        endpoints: compute endpoint table; defaults to
            :data:`repro.service.handlers.ENDPOINTS`.  Tests inject
            stub endpoints here to control compute latency.
        executor_factory: builds one *replica's* executor; defaults to
            ``ProcessPoolExecutor(config.workers)``.  Tests inject
            thread pools so counting stubs can observe invocations.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        endpoints=None,
        executor_factory: Optional[Callable[[], Any]] = None,
    ):
        self.config = config or ServiceConfig()
        self._endpoints = dict(ENDPOINTS if endpoints is None else endpoints)
        self._executor_factory = executor_factory or (
            lambda: ProcessPoolExecutor(max_workers=self.config.workers)
        )
        self._coalescer = RequestCoalescer()
        self._cache = build_response_cache(
            max_entries=self.config.cache_entries,
            ttl=self.config.cache_ttl,
        )
        self._metrics = MetricsTable("service")
        self._supervisor = ReplicaSupervisor(
            self._executor_factory, self.config.fleet_config()
        )
        self._transport = HttpTransport(
            self.dispatch,
            max_body_bytes=self.config.max_body_bytes,
            on_error=lambda status: self._metrics.incr(f"responses.{status}"),
        )
        self._stream_hub = StreamHub(
            MetricsTable("stream"),
            subscriber_queue=self.config.subscriber_queue,
        )
        self._stream_transport = StreamTransport(self._stream_hub.open_session)
        # Jitter source for Retry-After: synchronized rejected clients
        # must not re-stampede the admission queue on the same second.
        self._retry_after_rng = np.random.default_rng(FLEET_SEED + 1717)
        self._admitted = 0
        self._started_at = time.monotonic()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def metrics(self) -> MetricsTable:
        """The service's always-on ``service.*`` metrics table."""
        return self._metrics

    @property
    def response_cache(self):
        """The bounded LRU+TTL response cache (with stale reserve)."""
        return self._cache

    @property
    def supervisor(self) -> ReplicaSupervisor:
        """The replica fleet (exposed for chaos injection and tests)."""
        return self._supervisor

    @property
    def stream_port(self) -> Optional[int]:
        """The bound ingest port, when the stream listener is up."""
        return self._stream_transport.port

    async def start(self) -> None:
        """Warm the replica fleet, then bind the listening socket(s)."""
        self._started_at = time.monotonic()
        # Config is mutable until the socket binds; pick up late tweaks.
        self._transport.max_body_bytes = self.config.max_body_bytes
        await self._supervisor.start()
        self.host, self.port = await self._transport.start(
            self.config.host, self.config.port
        )
        if self.config.stream_port is not None:
            await self._stream_transport.start(
                self.config.host, self.config.stream_port
            )

    async def stop(self) -> None:
        """Stop listening, cancel in-flight handlers, tear down the fleet.

        Clean shutdown must not join possibly-hung workers — every
        replica pool is abandoned exactly as :mod:`repro.parallel`
        abandons an overdue pool (terminate, never join), so a
        mid-request SIGTERM exits promptly.
        """
        self._stream_hub.close()
        if self._stream_transport.serving:
            await self._stream_transport.stop()
        await self._transport.stop()
        await self._supervisor.stop()

    async def dispatch(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, str], bytes]:
        """In-process request dispatch: ``(status, headers, body bytes)``.

        The HTTP layer is a thin shell around this coroutine; tests and
        embedders can drive the full compute path (validation,
        caching, coalescing, admission, fleet dispatch) without
        sockets.  Never raises for request-level failures — they come
        back as status codes, exactly as a socket client would see
        them.
        """
        if not self._supervisor.started:
            # Socketless embedding: lazily warm the fleet that start()
            # would have warmed.
            await self._supervisor.start()
        try:
            return await self._route(method.upper(), path, body)
        except HttpError as exc:
            self._metrics.incr(f"responses.{exc.status}")
            return exc.status, exc.headers, _json_body({"error": str(exc)})
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # unexpected: never kill the server
            self._metrics.incr("errors")
            self._metrics.incr("responses.500")
            return 500, {}, _json_body({"error": f"internal error: {exc}"})

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        self._metrics.incr("requests")
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            self._metrics.incr("responses.200")
            return 200, {}, _json_body(self._health())
        if path == "/readyz":
            if method != "GET":
                raise HttpError(405, "use GET /readyz")
            ready, payload = self._readiness()
            status = 200 if ready else 503
            self._metrics.incr(f"responses.{status}")
            headers = {} if ready else {"Retry-After": self._retry_after()}
            return status, headers, _json_body(payload)
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET /metrics")
            self._metrics.incr("responses.200")
            return 200, {}, _json_body(self._metrics_payload())
        if path == "/subscribe":
            if method != "GET":
                raise HttpError(405, "use GET /subscribe")
            self._metrics.incr("responses.200")
            return 200, {}, self._subscribe_response()
        endpoint = self._endpoints.get(path)
        if endpoint is None:
            raise HttpError(404, f"unknown path {path!r}")
        if method != "POST":
            raise HttpError(405, f"use POST {path}")
        body_bytes, headers = await self._handle_compute(endpoint, body)
        self._metrics.incr("responses.200")
        return 200, headers, body_bytes

    # -- streaming fan-out ---------------------------------------------

    def _subscribe_response(self) -> StreamingResponse:
        """An open-ended NDJSON body fed from a fresh hub subscription.

        The subscriber is registered only once the response head is on
        the wire (``run`` time), so a rejected request never occupies a
        queue slot.  A small write buffer keeps backpressure from a
        slow consumer visible to the hub quickly — that is what turns a
        stalled reader into a counted eviction instead of unbounded
        server-side buffering.
        """
        hub = self._stream_hub

        async def run(writer: asyncio.StreamWriter) -> None:
            try:
                writer.transport.set_write_buffer_limits(high=1 << 14)
            except (AttributeError, RuntimeError):  # pragma: no cover
                pass
            await hub.subscribe().pump(writer)

        return StreamingResponse(run)

    # -- compute path --------------------------------------------------

    def _retry_after(self) -> str:
        """A jittered Retry-After in whole seconds (1-3)."""
        return str(int(self._retry_after_rng.integers(1, 4)))

    async def _handle_compute(
        self, endpoint, raw_body: bytes
    ) -> Tuple[bytes, Dict[str, str]]:
        self._metrics.incr(f"requests.{endpoint.name}")
        try:
            payload = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        try:
            canonical = endpoint.canonicalize(payload)
        except RequestError as exc:
            raise HttpError(400, str(exc)) from exc
        key = request_fingerprint(endpoint.path, canonical)
        found, cached = self._cache.lookup(key)
        if found:
            self._metrics.incr("cache_served")
            return cached, {"X-Repro-Cache": "hit"}
        if self._admitted >= self.config.queue_limit:
            self._metrics.incr("rejected")
            raise HttpError(
                503,
                f"admission queue full ({self.config.queue_limit} requests "
                "in flight); retry shortly",
                headers={"Retry-After": self._retry_after()},
            )
        self._admitted += 1
        self._update_load_gauges()
        try:
            (body_bytes, kind), coalesced = await self._coalescer.run(
                key, lambda: self._compute_body(endpoint, key, canonical)
            )
        finally:
            self._admitted -= 1
            self._update_load_gauges()
        if coalesced:
            self._metrics.incr("coalesced")
            return body_bytes, {"X-Repro-Cache": "coalesced"}
        headers = {"X-Repro-Cache": "miss"}
        if kind != "computed":
            headers["X-Repro-Degraded"] = kind
        return body_bytes, headers

    def _update_load_gauges(self) -> None:
        self._metrics.gauge("inflight", self._admitted)
        capacity = self.config.workers * self.config.replicas
        self._metrics.gauge(
            "queue_depth", max(0, self._admitted - capacity)
        )

    async def _compute_body(
        self, endpoint, key: str, canonical: Dict[str, Any]
    ) -> Tuple[bytes, str]:
        """Leader-side compute: ``(response bytes, kind)``.

        ``kind`` is ``"computed"`` for a fleet answer (cached; later
        hits are byte-identical), ``"stale"``/``"approximation"`` for
        degraded fallbacks (never cached — a degraded body must not
        shadow the real answer once the fleet recovers).
        """
        budget = DeadlineBudget(self.config.request_timeout)
        try:
            result = await self._supervisor.submit(
                key, endpoint.compute, canonical, budget=budget
            )
        except MODEL_ERRORS as exc:
            raise HttpError(400, f"model rejected the request: {exc}") from exc
        except FleetTimeout:
            self._metrics.incr("timeouts")
            raise HttpError(
                504,
                f"request exceeded its {self.config.request_timeout} s "
                "timeout; the worker pool was recycled",
            ) from None
        except FleetExhausted as exc:
            self._metrics.incr("pool_crashes", exc.crashes)
            raise HttpError(
                500,
                f"worker pool crashed {exc.crashes} times on this "
                "request; giving up",
            ) from None
        except NoHealthyReplica:
            return await self._degrade(endpoint, key, canonical)
        self._metrics.incr("computations")
        body = _json_body(result)
        # Store the exact bytes: a later cache hit is byte-identical to
        # this cold response, and followers of this flight share them.
        return self._cache.store(key, body), "computed"

    async def _degrade(
        self, endpoint, key: str, canonical: Dict[str, Any]
    ) -> Tuple[bytes, str]:
        """No healthy replica: stale bytes, then approximation, then 503."""
        found, stale = self._cache.lookup_stale(key)
        if found:
            payload = json.loads(stale.decode("utf-8"))
            payload["degraded"] = True
            self._metrics.incr("degraded")
            self._metrics.incr("degraded_stale")
            return _json_body(payload), "stale"
        if endpoint.approximate is not None:
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    None, endpoint.approximate, canonical
                )
            except Exception:
                result = None
            if result is not None:
                result["degraded"] = True
                self._metrics.incr("degraded")
                self._metrics.incr("degraded_approximations")
                return _json_body(result), "approximation"
        self._metrics.incr("unserved")
        raise HttpError(
            503,
            "no healthy compute replica is available and no degraded "
            "answer exists for this request; retry shortly",
            headers={"Retry-After": self._retry_after()},
        )

    # -- control endpoints ---------------------------------------------

    def _health(self) -> Dict[str, Any]:
        """Liveness: the event loop answers, nothing more.

        Replica sickness belongs to readiness — restarting this process
        (the remedy a failed liveness probe triggers) would not fix a
        sick replica the supervisor is already healing.
        """
        return {
            "status": "ok",
            "probe": "liveness",
            "uptime_seconds": time.monotonic() - self._started_at,
            "inflight": self._admitted,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "replicas": self.config.replicas,
        }

    def _readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Readiness: can the fleet deliver non-degraded answers now?"""
        healthy = self._supervisor.healthy_count()
        recent = self._supervisor.recent_crash_count()
        ready = (
            self._supervisor.started
            and healthy >= MIN_READY_REPLICAS
            and recent <= MAX_RECENT_CRASHES
        )
        return ready, {
            "status": "ready" if ready else "unready",
            "probe": "readiness",
            "healthy_replicas": healthy,
            "required_replicas": MIN_READY_REPLICAS,
            "recent_crashes": recent,
            "crash_window_seconds": CRASH_WINDOW,
            "max_recent_crashes": MAX_RECENT_CRASHES,
            "uptime_seconds": time.monotonic() - self._started_at,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        counters, gauges = self._metrics.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "inflight": self._admitted,
            "coalescer_inflight": self._coalescer.inflight,
            "response_cache": self._cache.stats(),
            "analysis_cache": analysis_cache().stats(),
            "fleet": (
                self._supervisor.snapshot()
                if self._supervisor.started
                else {"started": False}
            ),
            "stream": self._stream_hub.snapshot(),
            "uptime_seconds": time.monotonic() - self._started_at,
        }


async def _serve_until_signalled(config: ServiceConfig) -> int:
    service = AnalysisService(config)
    await service.start()
    # The address stays the final token: launchers parse it off this line.
    print(
        f"repro-service ({config.replicas} replica(s) x {config.workers} "
        f"worker(s)) listening on {service.host}:{service.port}",
        flush=True,
    )
    if service.stream_port is not None:
        # Same convention: the ingest address is this line's final token.
        print(
            "repro-stream ingest listening on "
            f"{service.host}:{service.stream_port}",
            flush=True,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix platforms fall back to KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        await service.stop()
    return 0


def run_service(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point behind ``repro serve``; returns an exit code.

    Runs until SIGINT/SIGTERM, then shuts down cleanly: the listener
    closes, in-flight handlers are cancelled, and every replica pool is
    abandoned rather than joined (a hung worker must not block exit).
    """
    config = config or ServiceConfig()
    try:
        return asyncio.run(_serve_until_signalled(config))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
