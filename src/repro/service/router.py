"""Consistent-hash routing of request fingerprints onto replicas.

The middle seam of the serving stack (transport → **router** → compute
pool).  Requests are keyed by their canonical scenario fingerprint
(:func:`repro.service.cache_policy.request_fingerprint`), so routing the
key — rather than round-robining connections — preserves the
singleflight property *per shard*: every request for one scenario lands
on the same replica, where the coalescer and that worker's warm
analysis cache (region areas, pmf stacks) keep doing their job.

Why a *consistent* hash ring and not ``hash(key) % N``: the fleet's
membership changes — the supervisor evicts sick replicas and restarts
them — and a modulus would remap almost every fingerprint on every
change, stampeding cold caches across the whole fleet.  On the ring,
removing one of ``N`` members remaps only the keys that member owned
(≈ ``1/N`` of the space, ``tests/property/test_prop_router.py`` pins
both the balance and the remap bound), and re-adding it restores the
original assignment exactly.

Each member is hashed onto the ring at :data:`DEFAULT_VNODES` points
(virtual nodes) so the arcs — and hence the key shares — stay balanced
within a few percent even for small fleets.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator, List, Tuple

__all__ = ["ConsistentHashRouter", "DEFAULT_VNODES"]

#: Ring points per member.  Share imbalance shrinks like 1/sqrt(vnodes);
#: 128 keeps the max/mean key share within ~1.3x for realistic fleets
#: while membership changes stay O(vnodes log ring).
DEFAULT_VNODES = 128


def _ring_point(label: str) -> int:
    """Position of ``label`` on the 2^64 ring (first 8 digest bytes)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRouter:
    """A hash ring mapping fingerprint keys to member ids.

    Starts empty; members join with :meth:`add` (duplicates are
    rejected), each at :data:`DEFAULT_VNODES` ring points.
    """

    def __init__(self) -> None:
        self._members: set = set()
        # Sorted, parallel: ring point -> owning member.
        self._points: List[int] = []
        self._owners: List[str] = []

    @property
    def members(self) -> frozenset:
        """The current member set."""
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        """Insert ``member`` at its :data:`DEFAULT_VNODES` ring points.

        A member's points depend only on its id, so remove + add is an
        exact inverse: the ring (and every key's owner) is restored.
        """
        if member in self._members:
            raise ValueError(f"member {member!r} is already on the ring")
        self._members.add(member)
        for index in range(DEFAULT_VNODES):
            point = _ring_point(f"{member}#{index}")
            at = bisect.bisect(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, member)

    def remove(self, member: str) -> None:
        """Remove ``member``'s ring points (its keys fall to successors)."""
        if member not in self._members:
            raise ValueError(f"member {member!r} is not on the ring")
        self._members.discard(member)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != member
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def route(self, key: str) -> str:
        """The member owning ``key``: first ring point clockwise.

        Raises:
            LookupError: when the ring is empty.
        """
        owner = next(self.preference(key), None)
        if owner is None:
            raise LookupError("cannot route on an empty ring")
        return owner

    def preference(self, key: str) -> Iterator[str]:
        """Distinct members in ring order starting at ``key``'s point.

        The failover order for ``key``: index 0 is its owner, index 1
        the replica its keys spill to first, and so on through every
        member exactly once.
        """
        if not self._points:
            return iter(())
        start = bisect.bisect(self._points, _ring_point(key)) % len(self._points)
        seen: set = set()

        def walk() -> Iterator[str]:
            for offset in range(len(self._owners)):
                owner = self._owners[(start + offset) % len(self._owners)]
                if owner not in seen:
                    seen.add(owner)
                    yield owner

        return walk()

    def shares(self, keys: Iterable[str]) -> Tuple[dict, int]:
        """Routing census: ``({member: key count}, total)`` over ``keys``."""
        counts = {member: 0 for member in self._members}
        total = 0
        for key in keys:
            counts[self.route(key)] += 1
            total += 1
        return counts, total
