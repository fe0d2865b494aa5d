"""Budgeted accounting of oracle evaluations for adaptive design search.

Every adaptive query charges the points it actually evaluated to an
:class:`EvaluationLedger` — one shared ledger per evaluator, so a query
that dispatches through a cache still reports one coherent
total.  The ledger is what the oracle-equivalence tier asserts on: an
adaptive answer is only interesting if it is *identical* to the dense
scan's answer **and** the ledger shows it touched a fraction of the
dense point count.

Counters (mirrored into the active :func:`repro.obs.current`
instrumentation under the ``adaptive.`` namespace):

==========================  ==================================================
counter                     meaning
==========================  ==================================================
``adaptive.evaluations``    oracle points actually evaluated (charged once
                            per point, on whichever evaluator computed it)
``adaptive.skipped``        dense-equivalent points the search did *not*
                            evaluate (dense cost minus actual cost, per query)
``adaptive.bisections``     bisection searches started
``adaptive.fallbacks``      searches that abandoned bisection for a dense
                            scan after a sampled monotonicity violation
``adaptive.cache_hits``     points answered from ``repro.cache`` instead of
                            being recomputed (never also charged as
                            evaluations)
==========================  ==================================================

An optional ``budget`` turns the ledger into a hard stop: evaluators
call :meth:`EvaluationLedger.precheck` *before* dispatching a batch —
a batch that would exceed the budget raises
:class:`BudgetExceededError` before any work starts, so a runaway
search cannot silently burn compute — and :meth:`~EvaluationLedger.charge`
only *after* the batch computes, so a failed dispatch consumes no
budget and inflates no counters.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AnalysisError
from repro.obs import current as _obs_current

__all__ = ["BudgetExceededError", "EvaluationLedger"]


class BudgetExceededError(AnalysisError):
    """An adaptive search asked for more oracle evaluations than budgeted."""


class EvaluationLedger:
    """Monotone counters for one adaptive search (or one evaluator's life).

    Args:
        budget: optional hard cap on total evaluations.  A
            :meth:`charge` that would cross it raises
            :class:`BudgetExceededError` without spending anything.
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is not None and budget < 1:
            raise AnalysisError(f"budget must be >= 1 or None, got {budget}")
        self.budget = budget
        self.evaluations = 0
        self.batches = 0
        self.cache_hits = 0
        self.bisections = 0
        self.fallbacks = 0
        self.skipped = 0

    def _mirror(self, name: str, amount: int = 1) -> None:
        ob = _obs_current()
        if ob.enabled and amount:
            ob.incr(f"adaptive.{name}", amount)

    def precheck(self, count: int) -> None:
        """Verify ``count`` more evaluations would fit the budget.

        Called before a batch is dispatched; spends nothing.  Pairing
        this with a post-computation :meth:`charge` keeps both halves of
        the contract: a budgeted search never starts work it cannot
        afford, and a dispatch that fails consumes nothing.

        Raises:
            BudgetExceededError: when ``count`` more evaluations would
                cross the budget.
        """
        if count < 0:
            raise AnalysisError(f"charge must be >= 0, got {count}")
        if self.budget is not None and self.evaluations + count > self.budget:
            raise BudgetExceededError(
                f"evaluation budget exhausted: {self.evaluations} spent, "
                f"{count} more requested, budget {self.budget}"
            )

    def charge(self, count: int) -> None:
        """Spend ``count`` oracle evaluations (one computed batch).

        Evaluators call this only after the batch has computed; use
        :meth:`precheck` to refuse an unaffordable batch before
        dispatching it.

        Raises:
            BudgetExceededError: when the charge would cross the budget;
                nothing is spent in that case.
        """
        self.precheck(count)
        if count == 0:
            return
        self.evaluations += count
        self.batches += 1
        self._mirror("evaluations", count)

    def record_cache_hits(self, count: int) -> None:
        """Count points answered from the cache (free: not evaluations)."""
        if count > 0:
            self.cache_hits += count
            self._mirror("cache_hits", count)

    def note_bisection(self) -> None:
        """Count one bisection search started."""
        self.bisections += 1
        self._mirror("bisections")

    def note_fallback(self) -> None:
        """Count one verified monotonicity violation -> dense fallback."""
        self.fallbacks += 1
        self._mirror("fallbacks")

    def note_skipped(self, count: int) -> None:
        """Record dense-equivalent points this query avoided evaluating.

        Clamped at zero: a query on a tiny range can legitimately cost as
        much as the dense scan, and "negative savings" would make the
        aggregate counter lie.
        """
        if count > 0:
            self.skipped += count
            self._mirror("skipped", count)

    def remaining(self) -> Optional[int]:
        """Evaluations left under the budget (``None`` = unbounded)."""
        if self.budget is None:
            return None
        return self.budget - self.evaluations

    def stats(self) -> dict:
        """JSON-serialisable snapshot for records and manifests."""
        return {
            "budget": self.budget,
            "evaluations": self.evaluations,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "bisections": self.bisections,
            "fallbacks": self.fallbacks,
            "skipped": self.skipped,
        }
