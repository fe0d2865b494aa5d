"""Response caching policy for the analysis service.

The service caches **serialised response bodies**, not Python objects:
a fingerprint of the canonicalised request maps to the exact bytes the
first (cold) computation produced, so a cached response is byte-identical
to the cold one — clients can checksum payloads across retries, and the
coalescer can hand every follower the leader's buffer without
re-serialising.

The store itself is :class:`repro.cache.AnalysisCache` — the same
bounded LRU+TTL table the analysis layers memoize through — configured
with the service's capacity policy:

* **bounded** (:data:`DEFAULT_CACHE_ENTRIES` entries by default): a
  long-lived server must not grow memory with the number of distinct
  scenarios it has ever seen; the least-recently-used response is
  evicted first, so hot scenarios (performance-map construction,
  repeated dashboard queries) stay resident;
* **TTL-capped** (optional): deployments that tune model code while the
  server runs can bound staleness; ``None`` (default) never expires —
  responses are pure functions of the request;
* **counter-instrumented**: hits/misses/evictions/expirations mirror
  into the active :mod:`repro.obs` instrumentation under
  ``service.cache.*`` and surface through ``GET /metrics``.

Keys are canonical-request fingerprints (:func:`request_fingerprint`):
the endpoint path plus the *validated, defaults-filled* request dict,
JSON-serialised with sorted keys — two payloads that differ only in key
order or omitted defaults share one cache line.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.cache import AnalysisCache

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_CACHE_TTL",
    "DEFAULT_STALE_GRACE",
    "build_response_cache",
    "request_fingerprint",
]

#: Default bound on cached responses.  Bodies are small (a few hundred
#: bytes to a few KiB for sweeps), so the default costs at most a few
#: MiB while covering any realistic hot set.
DEFAULT_CACHE_ENTRIES = 1024

#: Default time-to-live: never — responses are pure functions of the
#: canonical request.
DEFAULT_CACHE_TTL: Optional[float] = None


def request_fingerprint(endpoint: str, canonical: Dict[str, Any]) -> str:
    """Stable hex digest identifying one canonicalised request.

    Args:
        endpoint: the endpoint path (``"/analyze"``, ...) — two endpoints
            given identical parameter dicts must not share cache lines.
        canonical: the validated, defaults-filled request dict (see
            :mod:`repro.service.handlers`); must be JSON-serialisable.
    """
    payload = json.dumps(
        {"endpoint": endpoint, "request": canonical},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Responses never truly rot (they are pure functions of the request),
#: so an expired entry is kept — within the LRU bound — forever as
#: degraded-serving reserve rather than deleted on sight.
DEFAULT_STALE_GRACE: Optional[float] = float("inf")


def build_response_cache(
    max_entries: int = DEFAULT_CACHE_ENTRIES,
    ttl: Optional[float] = DEFAULT_CACHE_TTL,
    clock=None,
) -> AnalysisCache:
    """A bounded LRU+TTL store for response bodies.

    Args:
        max_entries: LRU bound (>= 1).
        ttl: optional seconds-to-live per entry.
        clock: injectable monotonic time source (tests).

    Expired responses stay recoverable for degraded serving
    (:meth:`repro.cache.AnalysisCache.lookup_stale`) for
    :data:`DEFAULT_STALE_GRACE` past ``ttl``, that is until LRU pressure
    evicts them.
    """
    kwargs: Dict[str, Any] = {}
    if clock is not None:
        kwargs["clock"] = clock
    return AnalysisCache(
        max_entries=max_entries,
        ttl=ttl,
        obs_prefix="service.cache",
        stale_grace=DEFAULT_STALE_GRACE,
        **kwargs,
    )
