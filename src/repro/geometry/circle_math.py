"""Closed-form circle geometry used by the region decomposition.

The paper's Eq. (6) is built from the intersection area of two equal-radius
circles (a *lens*).  For two circles of radius ``r`` whose centers are ``d``
apart the lens area is::

    A(d) = 2 r^2 acos(d / 2r) - (d / 2) sqrt(4 r^2 - d^2)      0 <= d <= 2r

which the paper writes as ``2 r^2 acos(d/2r) - d sqrt(r^2 - (d/2)^2)`` —
the two forms are identical.  Beyond ``d = 2r`` the circles are disjoint and
the area is zero.
"""

from __future__ import annotations

import math

from repro.errors import GeometryError

__all__ = ["circle_lens_area"]

#: Gaps ``2r - d`` below this fraction of ``r`` take the tangency branch
#: of :func:`circle_lens_area`; every other distance keeps the textbook
#: formula bit for bit.
_TANGENCY = 1e-4


def circle_lens_area(distance: float, radius: float) -> float:
    """Intersection area of two circles of equal ``radius``.

    Args:
        distance: distance between the two circle centers (non-negative).
        radius: common radius of both circles (non-negative).

    Returns:
        The lens area.  ``pi * radius**2`` when ``distance == 0`` (the
        circles coincide) and ``0.0`` once ``distance >= 2 * radius``.

    Raises:
        GeometryError: if either argument is negative.
    """
    if radius < 0:
        raise GeometryError(f"radius must be non-negative, got {radius}")
    if distance < 0:
        raise GeometryError(f"distance must be non-negative, got {distance}")
    if radius == 0 or distance >= 2 * radius:
        return 0.0
    gap = 2.0 * radius - distance
    if gap < _TANGENCY * radius:
        # Near tangency d / 2r rounds to within an ulp of 1, where acos
        # and sqrt(r^2 - (d/2)^2) lose half their digits.  The gap
        # 2r - d is exact here (Sterbenz), and both factors follow from
        # it: sqrt(4r^2 - d^2) = sqrt(gap (2r + d)), acos = atan2(that, d).
        chord = math.sqrt(gap * (2.0 * radius + distance))
        angle = math.atan2(chord, distance)
        area = 2.0 * radius * radius * angle - distance * chord / 2.0
    else:
        half = distance / 2.0
        area = 2.0 * radius * radius * math.acos(
            half / radius
        ) - distance * math.sqrt(radius * radius - half * half)
    # Near d = 2r the two terms cancel catastrophically and can leave a
    # tiny negative residue; the true area is non-negative by definition.
    return max(0.0, area)
