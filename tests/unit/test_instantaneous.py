"""Unit tests for the InstantaneousDetector oracle in tests/detection_oracles.py."""

import pytest

from repro.detection.reports import DetectionReport
from repro.errors import SimulationError
from repro.geometry.shapes import Point
from tests.detection_oracles import InstantaneousDetector


def report(node_id, period) -> DetectionReport:
    return DetectionReport(node_id, period, Point(0, 0))


class TestInstantaneousDetector:
    def test_fires_on_any_report_with_default_threshold(self):
        detector = InstantaneousDetector()
        assert not detector.observe(1, [])
        assert detector.observe(2, [report(0, 2)])
        assert detector.detection_periods == [2]

    def test_threshold_respected(self):
        detector = InstantaneousDetector(threshold=2)
        assert not detector.observe(1, [report(0, 1)])
        assert detector.observe(2, [report(0, 2), report(1, 2)])

    def test_no_memory_across_periods(self):
        # Unlike the group detector, reports never accumulate.
        detector = InstantaneousDetector(threshold=2)
        detector.observe(1, [report(0, 1)])
        assert not detector.observe(2, [report(1, 2)])

    def test_reset(self):
        detector = InstantaneousDetector()
        detector.observe(1, [report(0, 1)])
        detector.reset()
        assert detector.detection_periods == []
        detector.observe(1, [])  # period counter reset too

    def test_out_of_order_rejected(self):
        detector = InstantaneousDetector()
        detector.observe(2, [])
        with pytest.raises(SimulationError):
            detector.observe(1, [])

    def test_invalid_threshold_rejected(self):
        with pytest.raises(SimulationError):
            InstantaneousDetector(threshold=0)

    def test_every_false_alarm_becomes_system_alarm(self):
        # The failure mode motivating group detection: with k=1 every noisy
        # period fires.
        detector = InstantaneousDetector()
        fired = [detector.observe(p, [report(0, p)]) for p in range(1, 6)]
        assert all(fired)
