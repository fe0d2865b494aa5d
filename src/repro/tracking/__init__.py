"""Track estimation from detection reports.

Group based detection asks whether reports "can be mapped to a possible
target track" (paper Section 1); once the system-level decision fires, the
base station usually also wants that track.  This package estimates it:
each report localises the target to within ``Rs`` of the reporting sensor
at a known period, so per-period sensor centroids fitted with a total
least squares line recover the straight, constant-speed tracks the model
assumes.
"""

from repro.tracking.cluster import cluster_reports
from repro.tracking.estimate import TrackEstimate, estimate_track
from repro.tracking.metrics import (
    cross_track_rmse,
    heading_error,
    speed_error,
)

__all__ = [
    "TrackEstimate",
    "cluster_reports",
    "cross_track_rmse",
    "estimate_track",
    "heading_error",
    "speed_error",
]
