"""Online group-detection algorithms a deployed system would run."""

from repro.detection.group import GroupDetector
from repro.detection.reports import DetectionReport
from repro.detection.track_filter import SpeedGateTrackFilter

__all__ = [
    "DetectionReport",
    "GroupDetector",
    "SpeedGateTrackFilter",
]
