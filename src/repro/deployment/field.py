"""The rectangular sensor field, with optional torus topology helpers.

The analytical model assumes an unbounded plane with uniform sensor density.
A rectangular field with *torus* (wrap-around) distance reproduces that
assumption exactly in simulation: every location is statistically identical,
there are no edges.  The field therefore exposes both plain and wrapped
displacement operations; the simulator picks one per its boundary mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.shapes import Point

__all__ = ["SensorField"]


@dataclass(frozen=True)
class SensorField:
    """An axis-aligned rectangular field ``[0, width] x [0, height]``.

    Attributes:
        width: extent along x in meters.
        height: extent along y in meters.
    """

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise GeometryError(
                "field dimensions must be positive and finite, got "
                f"{self.width} x {self.height}"
            )

    @classmethod
    def square(cls, side: float) -> "SensorField":
        """A square field of the given ``side`` length."""
        return cls(side, side)

    @property
    def area(self) -> float:
        """``width * height``."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The field's center point."""
        return Point(self.width / 2.0, self.height / 2.0)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the field (boundary inclusive)."""
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.height

    def contains_xy(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` on coordinate arrays."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return (xs >= 0.0) & (xs <= self.width) & (ys >= 0.0) & (ys <= self.height)

    def wrap_xy(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """Map coordinates onto the torus (modulo field dimensions)."""
        return np.mod(xs, self.width), np.mod(ys, self.height)

    def wrapped_delta(self, dx: np.ndarray, dy: np.ndarray) -> tuple:
        """Shortest displacement on the torus.

        Components are mapped into ``[-width/2, width/2)`` and
        ``[-height/2, height/2)`` respectively, i.e. the nearest periodic
        image is chosen independently per axis.
        """
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        dx = (dx + self.width / 2.0) % self.width - self.width / 2.0
        dy = (dy + self.height / 2.0) % self.height - self.height / 2.0
        return dx, dy

    def torus_distance(self, a: Point, b: Point) -> float:
        """Distance between two points on the torus."""
        dx, dy = self.wrapped_delta(
            np.asarray(b.x - a.x), np.asarray(b.y - a.y)
        )
        return float(np.hypot(dx, dy))
