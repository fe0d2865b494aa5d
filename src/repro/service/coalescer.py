"""Request coalescing: concurrent identical queries share one computation.

Query-heavy workloads hammer a small set of scenarios (every dashboard
refresh asks for the same performance map; a sweep's grid points repeat
across users).  Without coalescing, ``Q`` concurrent identical requests
cost ``Q`` pool dispatches; with it they cost exactly one — the first
arrival (the *leader*) starts the computation, every later arrival (a
*follower*) awaits the same in-flight task, and all of them receive the
leader's result object.  Because the service computes **serialised
bodies**, followers get buffers byte-identical to the leader's.

This is the classic *singleflight* pattern, keyed on the canonical
request fingerprint (:func:`repro.service.cache_policy.request_fingerprint`).

Semantics:

* the in-flight table holds only live tasks — an entry removes itself
  the moment its task finishes (success or failure), so a failed
  computation is never served to later requests; they recompute;
* followers await through :func:`asyncio.shield`: one client
  disconnecting (cancelling its handler) must not cancel the shared
  computation under everyone else;
* an exception raised by the computation propagates to the leader *and*
  every follower of that flight — they all asked the same question.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Tuple

__all__ = ["RequestCoalescer"]


class RequestCoalescer:
    """Singleflight table for one event loop.

    Not thread-safe by design: every method must run on the loop that
    owns the service (asyncio's usual single-threaded discipline).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Task[Any]"] = {}

    @property
    def inflight(self) -> int:
        """Number of distinct computations currently in flight."""
        return len(self._inflight)

    async def run(
        self, key: str, compute: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, bool]:
        """Return ``(result, coalesced)`` for ``key``.

        The first caller for a key starts ``compute()`` as a task and is
        the flight's leader (``coalesced=False``); callers arriving while
        that task is live await it instead (``coalesced=True``).  The
        task's exception, if any, re-raises in every caller.
        """
        task = self._inflight.get(key)
        coalesced = task is not None
        if task is None:
            task = asyncio.get_running_loop().create_task(compute())
            self._inflight[key] = task
            task.add_done_callback(lambda _t: self._inflight.pop(key, None))
        # Shield: cancelling one waiting client must not cancel the
        # computation other clients are waiting on.
        result = await asyncio.shield(task)
        return result, coalesced
