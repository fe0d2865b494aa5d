"""Planar geometry substrate.

The point value type, the equal-radius lens area of the region
decomposition (Eq. 6), and Monte Carlo estimates of the coverage-count
region areas.
"""

from repro.geometry.circle_math import circle_lens_area
from repro.geometry.shapes import Point
from repro.geometry.coverage import estimate_coverage_count_areas

__all__ = [
    "Point",
    "circle_lens_area",
    "estimate_coverage_count_areas",
]
