"""Scenario-keyed memoization of expensive derived quantities.

Parameter sweeps evaluate the analysis over grids where most points share
their *geometry*: a ``k``-sweep changes only the detection rule, an
``N``-sweep changes only the occupancy binomial.  Yet the seed code
recomputed the region decomposition (Eqs. 6/8/10) and the stage report
pmfs at every grid point.  This module provides one process-wide
:class:`AnalysisCache` (hit/miss instrumented) plus the key-derivation
helpers that state *exactly* which scenario fields each quantity depends
on:

========================  ====================================================
quantity                  key fields
========================  ====================================================
region areas (Eq. 6-10)   ``sensing_range``, ``step_length`` (= V * t)
``window_regions``        the above + the window-prefix length
batched report grids      ``sensing_range``, ``step_length``, ``window``,
                          ``field_area``, ``detect_prob``, truncations,
                          substeps + the ``N``-axis bytes (not ``k``)
Monte Carlo area est.     ``sensing_range``, ``step_length``, periods,
                          samples, integer seed (uncached otherwise)
========================  ====================================================

``threshold`` (``k``) appears in *no* key — sweeping the detection rule is
free after the first grid point.  Cached arrays are returned read-only so
an accidental in-place mutation cannot poison later lookups.

Eviction policy
---------------

:class:`AnalysisCache` is a bounded **LRU** table with an optional
**TTL**: a hit refreshes the entry's recency, the least-recently-used
entry is evicted when ``max_entries`` is exceeded, and an entry older
than ``ttl`` seconds is dropped (and re-computed) on its next lookup.
The process-wide cache is bounded at :data:`DEFAULT_MAX_ENTRIES` so a
long-lived process — notably ``repro serve`` — cannot grow it without
limit; the serving layer's response cache
(:mod:`repro.service.cache_policy`) reuses the same class with a TTL.

Counter contract (asserted by ``tests/property/test_prop_cache.py``):
every lookup is charged as *exactly one* of hit or miss, so
``hits + misses == lookups`` always, all counters are monotone between
:meth:`AnalysisCache.clear` calls, and ``evictions + expirations <=
misses`` (only a miss can insert, so only inserts can evict).

Stale serving
-------------

With ``stale_grace`` set, an expired entry is *retained* (up to
``ttl + stale_grace`` old) instead of being deleted at lookup time:
:meth:`AnalysisCache.lookup` still reports it as a miss — freshness
semantics are unchanged — but :meth:`AnalysisCache.lookup_stale` can
recover it.  This is the service's graceful-degradation reserve: when no
healthy replica can compute a response, a stale-but-fingerprint-matching
one (flagged ``"degraded": true``) beats a 503.  Stale reads charge the
separate ``stale_hits`` counter, never ``hits``/``misses``, so the
``hits + misses == lookups`` contract is untouched.

The cache is intentionally per-process: worker processes spawned by
:mod:`repro.parallel` build their own (a fork inherits the parent's warm
entries for free on platforms that fork).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from repro.obs import current as _obs_current

__all__ = [
    "AnalysisCache",
    "DEFAULT_MAX_ENTRIES",
    "analysis_cache",
    "clear_analysis_cache",
    "cached_array",
    "design_point_key",
    "grid_key",
    "region_geometry_key",
]

#: Bound on the process-wide analysis cache.  Entries are small arrays,
#: so this is generous for any sweep the CLI runs, while guaranteeing a
#: long-lived server process cannot grow the table without limit.
DEFAULT_MAX_ENTRIES = 4096

_MISSING = object()


class AnalysisCache:
    """A thread-safe bounded LRU memo table with TTL and consistent counters.

    Args:
        max_entries: optional bound; the **least recently used** entry is
            evicted when an insert exceeds it.  ``None`` keeps everything.
        ttl: optional time-to-live in seconds; an entry older than this
            is treated as absent (and removed) by the next lookup.
            ``None`` (default) never expires.
        stale_grace: optional extra retention beyond ``ttl``
            (``float("inf")`` allowed).  Expired entries within the
            grace stay in the table — still reported as misses by
            :meth:`lookup`, but recoverable via :meth:`lookup_stale`
            for degraded serving.  ``None`` (default) deletes expired
            entries at lookup time, the historical behavior.
        clock: monotonic time source, injectable for tests.
        obs_prefix: counter namespace mirrored into the active
            :func:`repro.obs.current` instrumentation (``<prefix>.hits``,
            ``.misses``, ``.evictions``, ``.expirations``).

    Counter invariants: every :meth:`lookup` (and hence every
    :meth:`get_or_compute`) charges exactly one of ``hits``/``misses``,
    so ``hits + misses == lookups`` and all counters are monotone until
    :meth:`clear`.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        obs_prefix: str = "cache",
        stale_grace: Optional[float] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        if stale_grace is not None and stale_grace < 0:
            raise ValueError(
                f"stale_grace must be >= 0 or None, got {stale_grace}"
            )
        # key -> (value, expiry deadline or None, expiration-charged flag)
        self._entries: "OrderedDict[Hashable, Tuple[Any, Optional[float], bool]]" = (
            OrderedDict()
        )
        self._max_entries = max_entries
        self._ttl = ttl
        self._stale_grace = stale_grace
        self._clock = clock
        self._obs_prefix = obs_prefix
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._stale_hits = 0

    @property
    def max_entries(self) -> Optional[int]:
        """The configured bound (``None`` = unbounded)."""
        return self._max_entries

    @property
    def ttl(self) -> Optional[float]:
        """The configured time-to-live in seconds (``None`` = never)."""
        return self._ttl

    @property
    def stale_grace(self) -> Optional[float]:
        """Extra retention beyond ``ttl`` for degraded serving."""
        return self._stale_grace

    @property
    def stale_hits(self) -> int:
        """Expired entries served through :meth:`lookup_stale`."""
        return self._stale_hits

    @property
    def hits(self) -> int:
        """Lookups served from the table."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that found nothing (or only an expired entry)."""
        return self._misses

    @property
    def lookups(self) -> int:
        """Total lookups; always exactly ``hits + misses``."""
        return self._hits + self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to honour ``max_entries`` (LRU order)."""
        return self._evictions

    @property
    def expirations(self) -> int:
        """Entries dropped because their TTL had passed at lookup time."""
        return self._expirations

    def hit_rate(self) -> float:
        """``hits / lookups``; 0.0 before any lookup."""
        total = self.lookups
        return self._hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Presence test; counts nothing and never mutates the table."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                return False
            _, deadline, _charged = entry
            return deadline is None or self._clock() < deadline

    def _mirror(self, name: str, amount: int = 1) -> None:
        ob = _obs_current()
        if ob.enabled and amount:
            ob.incr(f"{self._obs_prefix}.{name}", amount)

    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """One counted lookup: ``(True, value)`` on a live entry.

        A hit refreshes the entry's LRU recency; an expired entry is
        removed and charged as a miss (plus one expiration).  Exactly one
        of ``hits``/``misses`` is incremented per call.
        """
        found = False
        value: Any = None
        expired = False
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is not _MISSING:
                candidate, deadline, charged = entry
                now = self._clock()
                if deadline is not None and now >= deadline:
                    if (
                        self._stale_grace is None
                        or now >= deadline + self._stale_grace
                    ):
                        del self._entries[key]
                    elif not charged:
                        # Retain for degraded serving; the expiration is
                        # charged once, on the transition to stale.
                        self._entries[key] = (candidate, deadline, True)
                    if not charged:
                        self._expirations += 1
                        expired = True
                    self._misses += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    found = True
                    value = candidate
            else:
                self._misses += 1
        if found:
            self._mirror("hits")
        else:
            if expired:
                self._mirror("expirations")
            self._mirror("misses")
        return found, value

    def store(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` under ``key``; first writer wins.

        Returns the value now cached (the existing one if a concurrent
        writer got there first).  Inserting may evict the LRU entry.
        Charges no hit/miss — only :meth:`lookup` counts lookups.
        """
        evicted = 0
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is not _MISSING:
                existing, deadline, _charged = entry
                if deadline is None or self._clock() < deadline:
                    return existing
            deadline = (
                self._clock() + self._ttl if self._ttl is not None else None
            )
            self._entries[key] = (value, deadline, False)
            self._entries.move_to_end(key)
            while (
                self._max_entries is not None
                and len(self._entries) > self._max_entries
            ):
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            self._mirror("evictions", evicted)
        return value

    def lookup_stale(self, key: Hashable) -> Tuple[bool, Any]:
        """Uncounted lookup that may serve an expired entry within grace.

        The degraded-serving read: returns ``(True, value)`` for a live
        *or* stale (expired but within ``stale_grace``) entry, charging
        only the ``stale_hits`` counter — never ``hits``/``misses`` — so
        the ``hits + misses == lookups`` contract is untouched.  Does
        not refresh LRU recency: serving stale must not keep an entry
        alive at the expense of fresh ones.
        """
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                return False, None
            value, deadline, _charged = entry
            if deadline is not None:
                now = self._clock()
                if now >= deadline and (
                    self._stale_grace is None
                    or now >= deadline + self._stale_grace
                ):
                    return False, None
            self._stale_hits += 1
        self._mirror("stale_hits")
        return True, value

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on first use.

        Hits and misses also increment the active instrumentation's
        ``<prefix>.hits`` / ``<prefix>.misses`` counters
        (:func:`repro.obs.current`) so run manifests carry them.  A
        racing compute (two threads missing the same key) charges one
        miss per loser *and* per winner — each thread performed a lookup
        that found nothing — so ``hits + misses == lookups`` holds on
        every path; the first stored value wins and is returned to all.
        """
        found, value = self.lookup(key)
        if found:
            return value
        # Compute outside the lock: computations can be slow and may
        # themselves consult the cache (e.g. pmfs built from region areas).
        return self.store(key, compute())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._expirations = 0
            self._stale_hits = 0

    def stats(self) -> dict:
        """JSON-serialisable snapshot (for benchmark records and logs)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "lookups": self._hits + self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "stale_hits": self._stale_hits,
                "hit_rate": (
                    self._hits / (self._hits + self._misses)
                    if (self._hits + self._misses)
                    else 0.0
                ),
                "max_entries": self._max_entries,
                "ttl": self._ttl,
                "stale_grace": self._stale_grace,
            }


_DEFAULT_CACHE = AnalysisCache(max_entries=DEFAULT_MAX_ENTRIES)


def analysis_cache() -> AnalysisCache:
    """The process-wide cache used by the analysis modules."""
    return _DEFAULT_CACHE


def clear_analysis_cache() -> None:
    """Reset the process-wide cache (entries and counters)."""
    _DEFAULT_CACHE.clear()


def cached_array(key: Hashable, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """Memoize an array-valued computation, freezing the stored copy.

    The returned array has ``writeable=False``: callers must copy before
    mutating, which keeps every consumer honest about shared state.
    """

    def compute_frozen() -> np.ndarray:
        value = np.asarray(compute())
        value.setflags(write=False)
        return value

    return _DEFAULT_CACHE.get_or_compute(key, compute_frozen)


def region_geometry_key(scenario) -> Tuple[float, float]:
    """The fields the region decomposition depends on: ``(Rs, V * t)``.

    ``ms`` is derived from these two, and neither ``N``, ``Pd``, ``k``,
    ``M`` nor the field dimensions affect Eqs. 6/8/10.
    """
    return (float(scenario.sensing_range), float(scenario.step_length))


def grid_key(
    scenario,
    body_truncation: int,
    head_truncation: int,
    substeps: int,
    num_sensors,
) -> Tuple:
    """Cache key for a batched report-count distribution stack.

    Keyed by everything the Eq. 12 chain depends on *except* the
    threshold: the region geometry (``Rs``, ``V * t``), the stage count
    ``M``, the occupancy/detection parameters, the truncations, and the
    ``N`` axis itself (byte-exact, order included — rows of the cached
    stack line up with the axis).  ``k`` is answered from the cached
    stack by a survival lookup, so — as everywhere in this cache — it
    appears in no key.
    """
    counts = np.ascontiguousarray(num_sensors, dtype=int)
    return (
        "batched_grid",
        float(scenario.sensing_range),
        float(scenario.step_length),
        int(scenario.window),
        float(scenario.field_area),
        float(scenario.detect_prob),
        int(body_truncation),
        int(head_truncation),
        int(substeps),
        counts.tobytes(),
    )


def design_point_key(
    scenario,
    body_truncation: int,
    head_truncation: int,
    substeps: int,
    normalize: bool,
    point: dict,
) -> Tuple:
    """Cache key for one design-space oracle point (a scalar probability).

    Keyed by the *fully resolved* scenario — the template with the
    point's replacement fields applied — plus the effective threshold and
    every engine parameter, so two design queries that land on the same
    ``(scenario, k)`` cell share one entry no matter which template or
    search path produced them.  Unlike :func:`grid_key` this memoises a
    single float, not a distribution stack: it is the adaptive layer's
    point-level memo, sitting *above* the stack cache.
    """
    # Lazy: repro.core.batched imports this module.
    from repro.core.batched import resolve_point

    target, threshold = resolve_point(scenario, point)
    return (
        "design_point",
        tuple(sorted(target.to_dict().items())),
        None if threshold is None else int(threshold),
        int(body_truncation),
        int(head_truncation),
        int(substeps),
        bool(normalize),
    )
