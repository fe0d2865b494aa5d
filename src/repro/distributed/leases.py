"""The work-stealing lease book: pure scheduling state, no sockets.

The coordinator's socket layer is a thin shell around this class; every
scheduling decision — initial shard grants, tail steals, crash
reclamation — lives here so the whole policy can be driven (and
property-tested) without processes or I/O.

Model
-----

A sweep is ``total`` points, identified by their index in sweep order.
Each registered worker holds **at most one lease at a time**: a set of
indexes granted as a contiguous run and processed front-to-back, so a
worker's outstanding lease is always a contiguous ascending range.  The
book tracks three disjoint populations:

* **completed** — indexes whose row has arrived (or was served by a
  checkpoint before the book was built);
* **leased** — indexes currently owned by some worker;
* **pool** — indexes neither completed nor leased, kept in sweep order.

Transitions are driven by four calls, each returning a list of
*directives* — ``("grant", worker, start, stop)``, ``("revoke", victim,
at)``, ``("done", worker)`` — that the transport layer must deliver:

* :meth:`request` — a worker wants work.  Pool non-empty: grant the
  longest contiguous run from the pool head, capped near
  ``ceil(pool / workers)`` (the same near-even split as
  :func:`repro.parallel.split_trials`).  Pool empty but some peer still
  owns ``>= 2`` pending points: begin a **steal** — the requester parks,
  the victim (the peer with the most pending points, i.e. the slowest)
  is told to stop before the midpoint of its remaining range.  Nothing
  stealable but work outstanding: the requester parks until a crash or
  an ack frees points.  Everything complete: ``done``.
* :meth:`ack_revoke` — the victim confirms the first index it did *not*
  compute; the tail beyond it transfers to a parked thief.  Two-phase
  revocation is what makes the schedule exactly-once: an index changes
  owner only after its previous owner has declared it untouched.
* :meth:`result` — a leased index completed; parked thieves may be
  released when this drains a victim below stealable size.
* :meth:`crash` — a worker vanished; its pending lease returns to the
  pool and parked thieves are re-served immediately.

Invariants (asserted by ``tests/property/test_prop_distributed.py``):
an index is granted to at most one worker at a time, completes exactly
once, and no index is ever lost — ``completed + leased + pool`` is a
partition of the sweep at every step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.parallel import split_trials

__all__ = ["Directive", "LeaseBook"]

#: A transport instruction: ("grant", worker, start, stop) |
#: ("revoke", victim, at) | ("done", worker).
Directive = Tuple[Any, ...]


class LeaseBook:
    """Exactly-once lease/steal accounting for one sweep.

    Args:
        total: number of points in the sweep.
        completed: indexes already served (from a checkpoint) before any
            worker connects.
        min_lease: smallest grant the book will cut from the pool (1 —
            the tail of a sweep degrades to per-point dispatch).
    """

    def __init__(
        self,
        total: int,
        completed: Sequence[int] = (),
        min_lease: int = 1,
    ):
        if total < 0:
            raise SimulationError(f"total must be >= 0, got {total}")
        self._total = total
        self._completed: Set[int] = set()
        for index in completed:
            if not 0 <= index < total:
                raise SimulationError(
                    f"completed index {index} outside sweep of {total} points"
                )
            self._completed.add(int(index))
        self._pool: List[int] = [
            index for index in range(total) if index not in self._completed
        ]
        self._leases: Dict[str, List[int]] = {}
        self._workers: List[str] = []
        #: victim -> thief parked on that victim's revocation.
        self._revoking: Dict[str, str] = {}
        #: thieves (and plain waiters) parked for work, FIFO.
        self._parked: List[str] = []
        self.stats = {"shards": 0, "steals": 0, "crashes": 0}
        if min_lease < 1:
            raise SimulationError(f"min_lease must be >= 1, got {min_lease}")
        self._min_lease = min_lease

    # -- introspection -------------------------------------------------

    @property
    def total(self) -> int:
        """Points in the sweep."""
        return self._total

    @property
    def done(self) -> bool:
        """Every point completed."""
        return len(self._completed) == self._total

    @property
    def completed(self) -> Set[int]:
        """Indexes completed so far (copy)."""
        return set(self._completed)

    def pending(self, worker: str) -> List[int]:
        """Indexes ``worker`` owns and has not completed (copy)."""
        return list(self._leases.get(worker, []))

    def workers(self) -> List[str]:
        """Registered workers, in registration order (copy)."""
        return list(self._workers)

    # -- transitions ---------------------------------------------------

    def register(self, worker: str) -> None:
        """Admit ``worker``; it may then :meth:`request` leases.

        Raises:
            SimulationError: on a duplicate registration.
        """
        if worker in self._leases or worker in self._workers:
            raise SimulationError(f"worker {worker!r} is already registered")
        self._workers.append(worker)
        self._leases[worker] = []

    def request(self, worker: str) -> List[Directive]:
        """``worker`` asks for work; returns the transport directives.

        The requester either receives a ``grant``, triggers a ``revoke``
        against the slowest peer (and parks until the ack), parks with
        no directive at all (work outstanding, nothing stealable yet),
        or receives ``done``.
        """
        self._require_registered(worker)
        if self._leases[worker]:
            raise SimulationError(
                f"worker {worker!r} requested a lease while still owning "
                f"{len(self._leases[worker])} points"
            )
        if self.done:
            return [("done", worker)]
        if self._pool:
            return [self._grant_from_pool(worker)]
        directives: List[Directive] = []
        if worker not in self._parked:
            self._parked.append(worker)
        revoke = self._begin_steal()
        if revoke is not None:
            directives.append(revoke)
        return directives

    def result(self, worker: str, index: int) -> List[Directive]:
        """Record a completed row from ``worker``.

        Raises:
            SimulationError: when ``index`` is not part of the worker's
                outstanding lease (a duplicate or stolen point — the
                exactly-once contract was about to break).
        """
        self._require_registered(worker)
        lease = self._leases[worker]
        if index not in lease:
            raise SimulationError(
                f"worker {worker!r} reported index {index}, which it does "
                "not own (duplicate or revoked point)"
            )
        lease.remove(index)
        self._completed.add(index)
        if self.done:
            return self._drain_done()
        # A victim that drained its lease below the steal split makes the
        # pending revocation moot only once the ack arrives; nothing to
        # re-evaluate here.  But a parked thief may now have a new steal
        # opportunity (e.g. the previously-smallest victim finished).
        return self._serve_parked()

    def ack_revoke(self, victim: str, stopped_at: int) -> List[Directive]:
        """The victim stopped before ``stopped_at``; transfer the tail.

        Every pending index ``>= stopped_at`` moves to the thief parked
        on this revocation (or back to the pool if the thief has since
        crashed).  An ack that arrives after the victim already passed
        the requested split transfers nothing; the thief is re-served.
        """
        self._require_registered(victim)
        thief = self._revoking.pop(victim, None)
        lease = self._leases[victim]
        stolen = [index for index in lease if index >= stopped_at]
        self._leases[victim] = [i for i in lease if i < stopped_at]
        directives: List[Directive] = []
        if stolen:
            if (
                thief is not None
                and thief in self._leases
                and not self._leases[thief]
            ):
                if thief in self._parked:
                    self._parked.remove(thief)
                self._leases[thief] = stolen
                self.stats["shards"] += 1
                self.stats["steals"] += 1
                directives.append(
                    ("grant", thief, stolen[0], stolen[-1] + 1)
                )
            else:
                # The thief crashed while parked — or was already served
                # from the pool (a crash refilled it mid-revocation) and
                # now owns a lease.  Either way the tail goes back to the
                # pool; the trailing ``_serve_parked`` re-grants it.
                self._return_to_pool(stolen)
        # Re-serve everyone still parked: the thief itself when the
        # victim outran the revoke (nothing was stolen), and any other
        # waiter now that this victim is revocable again.
        directives.extend(self._serve_parked())
        return directives

    def crash(self, worker: str) -> List[Directive]:
        """``worker`` vanished; reclaim its lease and re-serve waiters."""
        self._require_registered(worker)
        pending = self._leases.pop(worker)
        self._workers.remove(worker)
        self.stats["crashes"] += 1
        if pending:
            self._return_to_pool(pending)
        if worker in self._parked:
            self._parked.remove(worker)
        thief = self._revoking.pop(worker, None)
        if (
            thief is not None
            and thief not in self._parked
            and thief in self._leases
            and not self._leases[thief]
        ):
            # Re-park only a thief that is still idle.  A crash may have
            # refilled the pool mid-revocation and re-served the thief a
            # lease; re-parking it then would let _serve_parked grant it
            # a second lease over the live one, losing those indexes.
            self._parked.append(thief)
        if self.done:
            return self._drain_done()
        return self._serve_parked()

    # -- internals -----------------------------------------------------

    def _require_registered(self, worker: str) -> None:
        if worker not in self._leases:
            raise SimulationError(f"worker {worker!r} is not registered")

    def _grant_from_pool(self, worker: str) -> Directive:
        """Cut the longest contiguous run off the pool head, capped.

        The cap is :func:`repro.parallel.split_trials`' largest shard:
        the pool splits near-evenly over the registered workers, so the
        first round of grants shards the sweep exactly like the
        process-pool path shards trials.
        """
        workers = max(1, len(self._workers))
        cap = max(self._min_lease, split_trials(len(self._pool), workers)[0])
        run = 1
        while (
            run < cap
            and run < len(self._pool)
            and self._pool[run] == self._pool[run - 1] + 1
        ):
            run += 1
        granted, self._pool = self._pool[:run], self._pool[run:]
        self._leases[worker] = granted
        if worker in self._parked:
            self._parked.remove(worker)
        self.stats["shards"] += 1
        return ("grant", worker, granted[0], granted[-1] + 1)

    def _begin_steal(self) -> Optional[Directive]:
        """Pick the slowest victim and ask it to yield its tail half."""
        victims = [
            (len(lease), worker)
            for worker, lease in self._leases.items()
            if len(lease) >= 2 and worker not in self._revoking
        ]
        if not victims or not self._parked:
            return None
        _, victim = max(victims, key=lambda item: (item[0], item[1]))
        pend = self._leases[victim]
        at = pend[(len(pend) + 1) // 2]
        # Park the longest-waiting thief on this victim.
        for thief in self._parked:
            if thief not in self._revoking.values():
                self._revoking[victim] = thief
                return ("revoke", victim, at)
        return None

    def _serve_parked(self) -> List[Directive]:
        """Give parked workers pool grants (or new steals) if possible."""
        directives: List[Directive] = []
        for worker in list(self._parked):
            if self._pool:
                directives.append(self._grant_from_pool(worker))
            else:
                break
        if self._parked and not self._pool:
            revoke = self._begin_steal()
            if revoke is not None:
                directives.append(revoke)
        return directives

    def _drain_done(self) -> List[Directive]:
        """Tell every idle worker the sweep is complete."""
        directives: List[Directive] = [
            ("done", worker) for worker in self._parked
        ]
        self._parked.clear()
        self._revoking.clear()
        return directives

    def _return_to_pool(self, indexes: List[int]) -> None:
        self._pool = sorted(set(self._pool).union(indexes))
