"""An independent oracle for the coverage-count areas ``Region(i)``.

``stripe_regions`` shares no code with :mod:`repro.core.regions` (no lens
areas, no Eq. 6/8/10 recurrences).  It integrates the coverage count
stripe by stripe: hold the sensor's offset ``y`` from the track fixed,
with ``|y| < Rs``, and let ``h = sqrt(Rs² − y²)``, ``L = V·t``.  Period
``j`` (0-based) then covers every along-track ``x`` in
``[jL − h, (j+1)L + h]``, so the length of the stripe covered exactly
``i`` times is a sweep over ``2P`` sorted breakpoints.  Those lengths are
piecewise linear in ``h``; they change slope only where two breakpoints
meet, at ``2h = mL``.  With ``y = Rs·sin θ`` the integrand is smooth
between those kinks (no square-root endpoint), and
``scipy.integrate.quad_vec`` resolves every count at once to machine
precision.

The module also keeps the closed forms that check the library's
equal-radius lens (:func:`repro.geometry.circle_math.circle_lens_area`)
and its ``AreaH`` (:func:`repro.core.regions.area_h_closed_form`) from
other directions: the paper's Eq. (6) running-sum recurrence verbatim,
the two-circular-segment split of a lens, and the general two-disc
intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import quad_vec

from repro.errors import GeometryError
from repro.geometry.shapes import Point


def _stripe_lengths(
    h: float,
    step: float,
    periods: int,
    clip: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """``lengths[i]``: along-track length covered by exactly ``i`` of the
    first ``periods`` periods, at half-chord ``h`` (optionally only
    inside ``clip = (x_lo, x_hi)``)."""
    events = []
    for j in range(periods):
        events.append((j * step - h, +1))
        events.append(((j + 1) * step + h, -1))
    events.sort()
    lengths = np.zeros(periods + 1)
    count = 0
    previous = events[0][0]
    for position, change in events:
        lo, hi = previous, position
        if clip is not None:
            lo, hi = max(lo, clip[0]), min(hi, clip[1])
        if hi > lo:
            lengths[count] += hi - lo
        count += change
        previous = position
    return lengths


def _integrate(
    sensing_range: float, step: float, periods: int, head: bool
) -> np.ndarray:
    """``2 ∫₀^{π/2} lengths(Rs cos θ) · Rs cos θ dθ`` per coverage count."""
    kinks = [
        math.acos(min(1.0, m * step / (2.0 * sensing_range)))
        for m in range(1, int(2.0 * sensing_range / step) + 1)
    ]
    kinks = [k for k in kinks if 0.0 < k < math.pi / 2]

    def integrand(theta: float) -> np.ndarray:
        h = sensing_range * math.cos(theta)
        clip = (-h, step + h) if head else None
        return _stripe_lengths(h, step, periods, clip) * h

    areas, _ = quad_vec(
        integrand,
        0.0,
        math.pi / 2,
        epsabs=0.0,
        epsrel=1e-14,
        norm="max",
        points=kinks,
    )
    areas = 2.0 * areas
    areas[0] = 0.0
    return areas


def stripe_regions(sensing_range: float, step: float, periods: int) -> np.ndarray:
    """``Region(i)`` over the first ``periods`` periods, ``i = 1..periods``
    (``[0]`` is padding, as in :func:`repro.core.regions.window_regions`)."""
    return _integrate(sensing_range, step, periods, head=False)


def stripe_head_areas(sensing_range: float, step: float) -> np.ndarray:
    """``AreaH(i)``: the first period's detection region split by how many
    periods of an unbounded track cover each point, ``i = 1..ms + 1``."""
    ms = math.ceil(2.0 * sensing_range / step)
    # A point of the first region has x <= L + Rs, so no period past
    # index ms + 1 reaches it: ms + 2 periods stand in for the rest.
    return _integrate(sensing_range, step, ms + 2, head=True)[: ms + 2]


def _eq6_lens(d: float, rs: float) -> float:
    """Eq. (6)'s lens term ``2 Rs² acos(d/2Rs) − d sqrt(Rs² − (d/2)²)``.

    Within 1e-4·Rs of tangency ``d/2Rs`` rounds to within an ulp of 1,
    where ``acos`` and the square root lose half their digits; there both
    are taken from the exact gap ``2Rs − d`` instead.
    """
    gap = 2.0 * rs - d
    if gap < 1e-4 * rs:
        root = math.sqrt(gap * (2.0 * rs + d)) / 2.0  # sqrt(Rs² − (d/2)²)
        return 2.0 * rs * rs * math.atan2(2.0 * root, d) - d * root
    return 2.0 * rs * rs * math.acos(d / (2.0 * rs)) - d * math.sqrt(
        rs * rs - (d / 2.0) ** 2
    )


def area_h_literal(sensing_range: float, step_length: float, ms: int) -> np.ndarray:
    """``AreaH(i)`` computed exactly as written in the paper's Eq. (6)."""
    rs = sensing_range
    vt = step_length
    areas = np.zeros(ms + 2)
    for i in range(1, ms + 2):
        if i == 1:
            areas[i] = 2.0 * rs * vt
        elif i < ms + 1:
            lens = _eq6_lens((i - 1) * vt, rs)
            areas[i] = math.pi * rs * rs - lens - areas[2:i].sum()
        else:  # i == ms + 1
            areas[i] = _eq6_lens((i - 2) * vt, rs)
    # Same float hygiene as the closed form (see area_h_closed_form).
    return np.clip(areas, 0.0, None)


def circular_segment_area(radius: float, chord_distance: float) -> float:
    """Area of the circular segment cut off by a chord.

    The chord lies at perpendicular distance ``chord_distance`` from the
    circle center; the segment is the smaller piece (the one not containing
    the center) when ``chord_distance > 0``.

    Raises:
        GeometryError: if ``radius`` is negative, ``chord_distance`` is
            negative, or the chord lies outside the circle.
    """
    if radius < 0:
        raise GeometryError(f"radius must be non-negative, got {radius}")
    if chord_distance < 0:
        raise GeometryError(
            f"chord_distance must be non-negative, got {chord_distance}"
        )
    if chord_distance > radius:
        raise GeometryError(
            f"chord at distance {chord_distance} lies outside circle of radius {radius}"
        )
    if radius == 0:
        return 0.0
    return radius * radius * math.acos(
        chord_distance / radius
    ) - chord_distance * math.sqrt(radius * radius - chord_distance * chord_distance)


@dataclass(frozen=True)
class Circle:
    """A circle with a ``center`` and ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise GeometryError(f"radius must be non-negative, got {self.radius}")

    @property
    def area(self) -> float:
        """Area of the disc."""
        return math.pi * self.radius * self.radius

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside or on the circle."""
        return self.center.distance_to(point) <= self.radius

    def intersects(self, other: "Circle") -> bool:
        """Whether this circle's disc intersects ``other``'s disc."""
        return self.center.distance_to(other.center) <= self.radius + other.radius

    def intersection_area(self, other: "Circle") -> float:
        """Area of the intersection of the two discs (general radii)."""
        d = self.center.distance_to(other.center)
        r1, r2 = self.radius, other.radius
        if d >= r1 + r2:
            return 0.0
        # The near-concentric guard includes distances so small that the
        # general formula's d-divisions would underflow.
        if d <= abs(r1 - r2) or d < 1e-12 * min(r1, r2):
            smaller = min(r1, r2)
            return math.pi * smaller * smaller
        # Standard two-circle lens formula for distinct radii.
        term1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
        term2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
        term3 = 0.5 * math.sqrt(
            (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
        )
        return term1 + term2 - term3
