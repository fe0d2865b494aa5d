"""Property-based tests for the online detectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.group import GroupDetector
from repro.detection.reports import DetectionReport
from repro.geometry.shapes import Point


def report_stream_strategy(max_periods=25, max_nodes=8):
    """A list of per-period report counts, realised as DetectionReports."""

    @st.composite
    def build(draw):
        num_periods = draw(st.integers(1, max_periods))
        stream = []
        for period in range(1, num_periods + 1):
            node_ids = draw(
                st.lists(
                    st.integers(0, max_nodes - 1),
                    max_size=4,
                )
            )
            reports = [
                DetectionReport(node, period, Point(float(node), 0.0))
                for node in node_ids
            ]
            stream.append((period, reports))
        return stream

    return build()


class TestGroupDetectorProperties:
    @given(
        stream=report_stream_strategy(),
        window=st.integers(1, 10),
        threshold=st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_matches_batch_sliding_window_count(self, stream, window, threshold):
        """The online detector fires exactly when the windowed count does."""
        detector = GroupDetector(window=window, threshold=threshold)
        counts = {period: len(reports) for period, reports in stream}
        for period, reports in stream:
            fired = detector.observe(period, reports)
            windowed = sum(
                counts.get(p, 0) for p in range(period - window + 1, period + 1)
            )
            assert fired == (windowed >= threshold), (period, windowed)

    @given(
        stream=report_stream_strategy(),
        window=st.integers(1, 10),
        threshold=st.integers(1, 8),
        min_nodes=st.integers(1, 4),
    )
    @settings(max_examples=200)
    def test_min_nodes_matches_batch_count(self, stream, window, threshold, min_nodes):
        detector = GroupDetector(window, threshold, min_nodes=min_nodes)
        for period, reports in stream:
            fired = detector.observe(period, reports)
            window_lo = period - window + 1
            windowed = [
                r
                for p, rs in stream
                if window_lo <= p <= period
                for r in rs
            ]
            expected = (
                len(windowed) >= threshold
                and len({r.node_id for r in windowed}) >= min_nodes
            )
            assert fired == expected

    @given(stream=report_stream_strategy(), window=st.integers(1, 10))
    @settings(max_examples=100)
    def test_threshold_monotonicity(self, stream, window):
        """A stricter threshold can only fire on a subset of periods."""
        loose = GroupDetector(window, threshold=2)
        strict = GroupDetector(window, threshold=4)
        for period, reports in stream:
            loose.observe(period, reports)
            strict.observe(period, reports)
        assert set(strict.detection_periods) <= set(loose.detection_periods)

    @given(stream=report_stream_strategy())
    @settings(max_examples=100)
    def test_window_one_equals_instantaneous(self, stream):
        from tests.detection_oracles import InstantaneousDetector

        group = GroupDetector(window=1, threshold=2)
        instant = InstantaneousDetector(threshold=2)
        for period, reports in stream:
            assert group.observe(period, reports) == instant.observe(
                period, reports
            )
