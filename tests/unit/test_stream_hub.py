"""Unit tests for the stream hub: sessions, fan-out, eviction."""

import asyncio
import json

import pytest

from repro.errors import ProtocolError
from repro.experiments.presets import small_scenario
from repro.detection.reports import DetectionReport
from repro.geometry.shapes import Point
from repro.streaming import protocol
from repro.streaming.hub import StreamHub


def _run(coro):
    return asyncio.run(coro)


def _report(node, period):
    return DetectionReport(node, period, Point(0.0, 0.0))


def _play_session(hub, periods, seed=3, event_digest=None):
    """Feed one full session through a hub; return the end summary."""
    scenario = small_scenario()
    session = hub.open_session()
    session.handle(protocol.hello_frame(scenario, seed=seed))
    seq = 0
    total = 0
    last = 0
    for period, reports in periods:
        seq += 1
        session.handle(protocol.reports_frame(seq, period, reports))
        total += len(reports)
        last = period
    seq += 1
    replies = session.handle(
        protocol.end_frame(
            seq, periods=last, total_reports=total, event_digest=event_digest
        )
    )
    return replies[0]


class TestSessions:
    def test_session_summary_and_counters(self):
        hub = StreamHub()
        summary = _play_session(
            hub,
            [(1, [_report(1, 1)]), (2, [_report(2, 2), _report(3, 2)])],
        )
        assert summary["type"] == "end"
        assert summary["periods"] == 2
        assert summary["total_reports"] == 3
        assert len(summary["event_digest"]) == 64
        counters = hub.snapshot()["counters"]
        assert counters["sessions"] == 1
        assert counters["sessions_completed"] == 1
        assert counters["reports"] == 3
        assert counters["events"] == 2
        assert hub.snapshot()["sessions_active"] == 0

    def test_grammar_violation_propagates(self):
        hub = StreamHub()
        session = hub.open_session()
        session.handle(protocol.hello_frame(small_scenario(), seed=1))
        with pytest.raises(ProtocolError):
            session.handle(protocol.reports_frame(2, 1, []))  # seq skips 1

    def test_digest_mismatch_is_rejected_and_counted(self):
        hub = StreamHub()
        with pytest.raises(ProtocolError) as excinfo:
            _play_session(hub, [(1, [])], event_digest="0" * 64)
        assert excinfo.value.code == "digest"
        assert hub.snapshot()["counters"]["digest_mismatches"] == 1

    def test_matching_pinned_digest_accepted(self):
        hub = StreamHub()
        first = _play_session(hub, [(1, [_report(1, 1)])], seed=1)
        second = _play_session(
            hub,
            [(1, [_report(1, 1)])],
            seed=1,
            event_digest=first["event_digest"],
        )
        assert second["event_digest"] == first["event_digest"]

    def test_reports_frame_is_parsed_once(self, monkeypatch):
        session = StreamHub().open_session()
        session.handle(protocol.hello_frame(small_scenario(), seed=1))
        frame = protocol.reports_frame(
            1, 1, [_report(node, 1) for node in range(16)]
        )
        constructed = []
        init = DetectionReport.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DetectionReport, "__init__", counting_init)
        session.handle(frame)
        assert len(constructed) == 16
        assert session.detector.windowed_count == 16


class TestFanOut:
    def test_subscribers_receive_identical_full_sessions(self):
        async def main():
            hub = StreamHub()
            subscribers = [hub.subscribe() for _ in range(3)]
            _play_session(hub, [(1, [_report(1, 1)]), (2, [])])

            async def drain(sub):
                frames = []
                async for encoded in sub:
                    frames.append(json.loads(encoded))
                    if frames[-1]["type"] == "end":
                        sub.close()
                return frames

            return await asyncio.gather(*(drain(s) for s in subscribers))

        streams = _run(main())
        assert streams[0] == streams[1] == streams[2]
        types = [frame["type"] for frame in streams[0]]
        assert types == ["hello", "event", "event", "end"]

    def test_slow_subscriber_is_evicted_and_counted(self):
        async def main():
            hub = StreamHub(subscriber_queue=2)
            slow = hub.subscribe()
            fast = hub.subscribe()

            async def drain(sub):
                frames = []
                async for encoded in sub:
                    frames.append(json.loads(encoded))
                    if frames[-1]["type"] == "end":
                        sub.close()
                return frames

            drain_task = asyncio.ensure_future(drain(fast))
            await asyncio.sleep(0)
            # 5 periods -> hello + 5 events + end = 7 frames; the slow
            # subscriber never drains its 2-slot queue while the fast
            # one keeps up (the loop gets control between frames, as it
            # would between socket reads).
            scenario = small_scenario()
            session = hub.open_session()
            session.handle(protocol.hello_frame(scenario, seed=3))
            await asyncio.sleep(0)
            for seq, period in enumerate(range(1, 6), start=1):
                session.handle(protocol.reports_frame(seq, period, []))
                await asyncio.sleep(0)
            session.handle(
                protocol.end_frame(6, periods=5, total_reports=0)
            )
            fast_frames = await drain_task
            return hub, slow, fast_frames

        hub, slow, fast_frames = _run(main())
        assert slow.evicted
        assert hub.snapshot()["counters"]["subscriber_evictions"] == 1
        assert [f["type"] for f in fast_frames][-1] == "end"
        assert hub.snapshot()["subscribers_active"] == 0

    def test_unsubscribe_is_idempotent(self):
        async def main():
            hub = StreamHub()
            sub = hub.subscribe()
            hub.unsubscribe(sub)
            hub.unsubscribe(sub)
            return hub.snapshot()

        snapshot = _run(main())
        assert snapshot["subscribers_active"] == 0
        assert snapshot["counters"].get("subscriber_evictions", 0) == 0

    def test_broadcast_without_subscribers_is_cheap(self):
        hub = StreamHub()
        assert hub.broadcast({"type": "event"}) == 0

    def test_close_wakes_all_subscribers(self):
        async def main():
            hub = StreamHub()
            subs = [hub.subscribe() for _ in range(2)]

            async def drain(sub):
                return [frame async for frame in sub]

            tasks = [asyncio.ensure_future(drain(s)) for s in subs]
            await asyncio.sleep(0)
            hub.close()
            return await asyncio.gather(*tasks)

        results = _run(main())
        assert results == [[], []]

    def test_invalid_queue_bound_rejected(self):
        with pytest.raises(ValueError):
            StreamHub(subscriber_queue=0)
