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
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import quad_vec


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
