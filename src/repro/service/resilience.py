"""Per-request resilience policy: deadlines and retries.

Two small, independently testable pieces that the supervisor composes
around every compute attempt:

* :class:`DeadlineBudget` — one wall-clock budget per *request*, spent
  across every retry.  A request that burns 80% of its budget on a
  replica that then gets evicted retries with the remaining 20%, so
  retries can never extend a request past the timeout the client was
  promised.
* :class:`RetryBackoff` — bounded, jittered exponential backoff between
  attempts.  Deterministic given its seed (the fleet seed), mirroring
  the discipline of :mod:`repro.faults`: two runs of the same chaos
  script make the same scheduling decisions.

There is no per-replica failure accounting here: the supervisor evicts
a replica on its first fault, so a replica is either routable or gone.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

__all__ = ["DeadlineBudget", "RetryBackoff"]


class DeadlineBudget:
    """A single wall-clock budget spent across a request's retries.

    Args:
        total: budget in seconds.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self, total: float, clock: Callable[[], float] = time.monotonic
    ):
        if total <= 0:
            raise ValueError(f"deadline budget must be positive, got {total}")
        self.total = total
        self._clock = clock
        self._deadline = clock() + total

    def remaining(self) -> float:
        """Seconds left; 0.0 once the budget is exhausted."""
        return max(0.0, self._deadline - self._clock())

    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self.remaining() <= 0.0


class RetryBackoff:
    """Jittered exponential backoff: ``base * 2^attempt``, capped.

    The jitter multiplier is drawn uniformly from ``[0.5, 1.0]``
    ("equal jitter") from a seeded generator, so concurrent retries
    decorrelate while a fixed seed keeps chaos runs reproducible.

    Args:
        base: first-retry delay in seconds.
        cap: maximum delay regardless of attempt count.
        seed: generator seed (``None`` for OS entropy).
    """

    def __init__(self, base: float = 0.05, cap: float = 2.0, seed=None):
        if base <= 0 or cap < base:
            raise ValueError(
                f"need 0 < base <= cap, got base={base} cap={cap}"
            )
        self.base = base
        self.cap = cap
        self._rng = np.random.default_rng(seed)

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * (2.0 ** max(0, attempt)))
        return raw * float(self._rng.uniform(0.5, 1.0))

