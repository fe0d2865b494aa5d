"""The planar point value type.

A small immutable value type.  The hot paths of the simulator use raw
numpy arrays instead (see :mod:`repro.simulation.sensing`); :class:`Point`
is the readable position carried by detection reports and track
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Point"]


@dataclass(frozen=True)
class Point:
    """A point in the plane."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
