"""The online sliding-window detector: k-of-M as an incremental sum.

:class:`~repro.detection.group.GroupDetector` re-counts the whole window
on every period — fine offline, but a base station closing thousands of
periods wants O(reports) work per period, not O(window x reports).
:class:`SlidingWindowDetector` maintains the ``M``-period window
*incrementally*: the windowed report count is a running sum updated by
``+new - expired`` (the online form of the sliding-window convolution
the batched kernels apply to whole count arrays), and the distinct-node
count is a node multiset updated the same way.  Each closed period emits
one :class:`DetectionEvent`.

The headline contract (asserted by the golden-stream corpus and the
hypothesis equivalence suite): replaying any episode through this
detector yields decisions **bitwise identical** to the offline
:class:`GroupDetector` over the same stream — same fired flags, same
detection periods.  Counts are small integers, so "bitwise" holds
exactly, not approximately.

Reports may arrive *within* an open period in any number of chunks
(:meth:`ingest`); the decision is made exactly once, when the period
closes (:meth:`close_period`).  :meth:`observe` is the one-shot
convenience matching the offline API.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.detection.reports import DetectionReport
from repro.detection.track_filter import SpeedGateTrackFilter
from repro.errors import SimulationError

__all__ = ["DetectionEvent", "SlidingWindowDetector", "event_digest"]


@dataclass(frozen=True)
class DetectionEvent:
    """The decision emitted when one sensing period closes.

    Attributes:
        period: the 1-based period that just closed.
        fired: the k-of-M (and h-distinct-node) decision for the window
            ending at this period.
        new_detection: ``True`` only on the first fired period of a
            contiguous fired run — the moment an operator is paged.
        windowed_reports: reports counted inside the window (after track
            filtering, when a filter is configured).
        distinct_nodes: distinct reporting nodes inside the window.
        new_reports: reports that arrived in this period.
    """

    period: int
    fired: bool
    new_detection: bool
    windowed_reports: int
    distinct_nodes: int
    new_reports: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serialisable, canonical field order)."""
        return {
            "period": self.period,
            "fired": self.fired,
            "new_detection": self.new_detection,
            "windowed_reports": self.windowed_reports,
            "distinct_nodes": self.distinct_nodes,
            "new_reports": self.new_reports,
        }


def event_digest(events: Iterable[DetectionEvent]) -> str:
    """Stable hex digest of an event sequence.

    Canonical JSON of the event dicts, hashed — two detectors that
    agree bitwise on every decision produce the same digest, which is
    what recorder manifests pin and the live ``/subscribe`` path is
    checked against.
    """
    payload = json.dumps(
        [event.to_dict() for event in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SlidingWindowDetector:
    """Incremental k-of-M group detection over a live report stream.

    Args:
        window: ``M`` — periods the decision looks back over.
        threshold: ``k`` — reports required within the window.
        min_nodes: ``h`` — distinct reporting nodes required.
        track_filter: optional :class:`SpeedGateTrackFilter`.  Track
            filtering is a global property of the windowed report set,
            so with a filter configured the decision falls back to
            evaluating the filtered window at each close (the counts
            stay incremental; only the candidate subset is recomputed)
            — exactly what :class:`GroupDetector` does, keeping the
            equivalence contract intact.

    Raises:
        SimulationError: on invalid parameters, out-of-order periods,
            or reports stamped with the wrong period.
    """

    def __init__(
        self,
        window: int,
        threshold: int,
        min_nodes: int = 1,
        track_filter: Optional[SpeedGateTrackFilter] = None,
    ):
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if threshold < 1:
            raise SimulationError(f"threshold must be >= 1, got {threshold}")
        if min_nodes < 1:
            raise SimulationError(f"min_nodes must be >= 1, got {min_nodes}")
        self._window = window
        self._threshold = threshold
        self._min_nodes = min_nodes
        self._track_filter = track_filter
        self._periods: Deque[Tuple[int, List[DetectionReport]]] = deque()
        self._pending: List[DetectionReport] = []
        self._open_period: Optional[int] = None
        self._last_period = 0
        self._count = 0  # running windowed report count
        self._nodes: Counter = Counter()  # node_id -> windowed reports
        self._events: List[DetectionEvent] = []
        self._detections: List[int] = []
        self._was_fired = False

    # -- read-only views ------------------------------------------------

    @property
    def window(self) -> int:
        """``M``."""
        return self._window

    @property
    def threshold(self) -> int:
        """``k``."""
        return self._threshold

    @property
    def min_nodes(self) -> int:
        """``h``."""
        return self._min_nodes

    @property
    def windowed_count(self) -> int:
        """Reports currently inside the window (incremental sum)."""
        return self._count

    @property
    def distinct_node_count(self) -> int:
        """Distinct nodes currently inside the window."""
        return len(self._nodes)

    @property
    def last_period(self) -> int:
        """The last period that closed (0 before any)."""
        return self._last_period

    @property
    def events(self) -> List[DetectionEvent]:
        """Every emitted event, in period order (copy)."""
        return list(self._events)

    @property
    def detection_periods(self) -> List[int]:
        """Periods whose decision fired (copy)."""
        return list(self._detections)

    def windowed_reports(self) -> List[DetectionReport]:
        """All closed-period reports currently inside the window."""
        return [report for _, reports in self._periods for report in reports]

    def digest(self) -> str:
        """Digest of the events emitted so far."""
        return event_digest(self._events)

    # -- streaming API ---------------------------------------------------

    def ingest(self, report: DetectionReport) -> None:
        """Buffer one report for the period it is stamped with.

        Opens that period if none is open.  Reports for an already
        closed period (or a different period than the open one) are
        rejected — the transport layer orders frames, so an out-of-time
        report here is a programming error, not a network reality.

        Raises:
            SimulationError: on a report for a closed or mismatched
                period.
        """
        if self._open_period is None:
            if report.period <= self._last_period:
                raise SimulationError(
                    f"report for closed period {report.period} "
                    f"(last closed: {self._last_period})"
                )
            self._open_period = report.period
        elif report.period != self._open_period:
            raise SimulationError(
                f"report carries period {report.period}, expected open "
                f"period {self._open_period}"
            )
        self._pending.append(report)

    def close_period(self, period: int) -> DetectionEvent:
        """Close ``period`` and emit its decision event.

        Periods must close in strictly increasing order; gaps are
        allowed (a gap period simply never had reports).  When reports
        were ingested for a later period, closing an earlier one is an
        error.

        Raises:
            SimulationError: on out-of-order closes.
        """
        if period <= self._last_period:
            raise SimulationError(
                f"periods must close in increasing order: got {period} "
                f"after {self._last_period}"
            )
        if self._open_period is not None and period != self._open_period:
            raise SimulationError(
                f"cannot close period {period} while period "
                f"{self._open_period} is open"
            )
        arrivals = self._pending
        self._pending = []
        self._open_period = None
        self._last_period = period

        # Slide the window: admit the new period, retire expired ones.
        self._periods.append((period, arrivals))
        self._count += len(arrivals)
        for report in arrivals:
            self._nodes[report.node_id] += 1
        while self._periods and self._periods[0][0] <= period - self._window:
            _, expired = self._periods.popleft()
            self._count -= len(expired)
            for report in expired:
                remaining = self._nodes[report.node_id] - 1
                if remaining:
                    self._nodes[report.node_id] = remaining
                else:
                    del self._nodes[report.node_id]

        if self._track_filter is None:
            count = self._count
            nodes = len(self._nodes)
        else:
            candidates = self._track_filter.largest_feasible_subset(
                self.windowed_reports()
            )
            count = len(candidates)
            nodes = len({report.node_id for report in candidates})
        fired = count >= self._threshold and nodes >= self._min_nodes
        event = DetectionEvent(
            period=period,
            fired=fired,
            new_detection=fired and not self._was_fired,
            windowed_reports=count,
            distinct_nodes=nodes,
            new_reports=len(arrivals),
        )
        self._was_fired = fired
        self._events.append(event)
        if fired:
            self._detections.append(period)
        return event

    def observe(
        self, period: int, reports: Iterable[DetectionReport]
    ) -> DetectionEvent:
        """Feed one whole period and close it — the offline-shaped API.

        Raises:
            SimulationError: on out-of-order periods or reports whose
                period does not match (same contract as
                :meth:`GroupDetector.observe`).
        """
        for report in reports:
            if report.period != period:
                raise SimulationError(
                    f"report carries period {report.period}, expected "
                    f"{period}"
                )
            self.ingest(report)
        return self.close_period(period)

    def process_stream(
        self, periods: Iterable[Tuple[int, Iterable[DetectionReport]]]
    ) -> List[DetectionEvent]:
        """Observe a whole stream; return the emitted events."""
        start = len(self._events)
        for period, reports in periods:
            self.observe(period, reports)
        return self._events[start:]

    def reset(self) -> None:
        """Forget all state (fresh deployment)."""
        self._periods.clear()
        self._pending.clear()
        self._open_period = None
        self._last_period = 0
        self._count = 0
        self._nodes.clear()
        self._events.clear()
        self._detections.clear()
        self._was_fired = False
