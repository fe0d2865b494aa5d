"""repro.service — the async analysis serving layer behind ``repro serve``.

A stdlib-only asyncio HTTP server exposing the model as JSON endpoints:

=============  ======  ====================================================
``/analyze``   POST    analytical detection probability (M-S-approach)
``/simulate``  POST    Monte Carlo validation run (seeded, deterministic)
``/sweep``     POST    analytical probability over one parameter axis
``/healthz``   GET     liveness (the event loop answers)
``/readyz``    GET     readiness (healthy replicas + recent crash rate)
``/metrics``   GET     counters, gauges, cache, coalescer and fleet stats
=============  ======  ====================================================

The serving stack is split along three seams — transport, router,
compute pool — with the orchestration layer on top:

* :mod:`repro.service.transport` — HTTP/1.1 plumbing over asyncio
  streams; knows nothing about endpoints or replicas;
* :mod:`repro.service.router` — consistent hashing of request
  fingerprints onto replicas (singleflight and warm caches stay per
  shard; membership changes remap ~1/N of keys);
* :mod:`repro.service.supervisor` + :mod:`repro.service.replica` — the
  supervised replica fleet: process-backed pools, heartbeat
  monitoring, eviction on the first fault + backoff restart,
  per-request deadline budgets (:mod:`repro.service.resilience`);
* :mod:`repro.service.server` — orchestration: bounded admission
  (503 + jittered ``Retry-After`` under saturation), graceful
  degradation (stale cache / analytical approximation flagged
  ``"degraded": true`` when no replica is healthy), clean
  signal-driven shutdown;
* :mod:`repro.service.coalescer` — singleflight request coalescing:
  concurrent identical queries share one in-flight computation;
* :mod:`repro.service.cache_policy` — the bounded LRU+TTL response-byte
  cache (cached responses are byte-identical to cold ones) with a
  stale reserve for degraded serving;
* :mod:`repro.service.handlers` — request validation/canonicalisation,
  the picklable worker-side compute kernels, and the cheap
  degraded-mode approximations;
* :mod:`repro.service.metrics` — the ``service.*``/``fleet.*`` counter
  tables mirrored into :mod:`repro.obs`.

Fault injection for this stack lives in :mod:`repro.chaos`.  See
``docs/service.md`` for endpoint schemas and the fleet architecture,
``docs/robustness.md`` for the chaos harness.
"""

from repro.service.cache_policy import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_CACHE_TTL,
    DEFAULT_STALE_GRACE,
    build_response_cache,
    request_fingerprint,
)
from repro.service.coalescer import RequestCoalescer
from repro.service.handlers import ENDPOINTS, Endpoint, RequestError
from repro.service.resilience import DeadlineBudget, RetryBackoff
from repro.service.router import ConsistentHashRouter
from repro.service.server import AnalysisService, ServiceConfig, run_service
from repro.service.supervisor import (
    FleetConfig,
    FleetExhausted,
    FleetTimeout,
    NoHealthyReplica,
    ReplicaSupervisor,
)

__all__ = [
    "AnalysisService",
    "ConsistentHashRouter",
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_CACHE_TTL",
    "DEFAULT_STALE_GRACE",
    "DeadlineBudget",
    "ENDPOINTS",
    "Endpoint",
    "FleetConfig",
    "FleetExhausted",
    "FleetTimeout",
    "NoHealthyReplica",
    "ReplicaSupervisor",
    "RequestCoalescer",
    "RequestError",
    "RetryBackoff",
    "ServiceConfig",
    "build_response_cache",
    "request_fingerprint",
    "run_service",
]
