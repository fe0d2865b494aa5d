"""The streaming hub: publisher sessions in, detection events fanned out.

One :class:`StreamHub` lives inside the service process.  Publishers
open a :class:`StreamSession` each (over the framed-TCP ingest listener)
and stream report frames; the hub runs one
:class:`~repro.streaming.detector.SlidingWindowDetector` per session and
broadcasts every emitted :class:`DetectionEvent` — plus the session
hello and end frames — to all subscribers the moment the period closes.

Fan-out policy: every subscriber owns a **bounded** queue
(``subscriber_queue`` frames).  A subscriber that cannot drain its
queue as fast as events are produced is **evicted** — the hub drops it,
counts ``stream.subscriber_evictions``, and the slow consumer's
connection closes — rather than letting one stalled reader grow server
memory or stall the detection path.  Fast subscribers are unaffected
and all receive identical frame sequences.

All counters live in a :class:`repro.service.metrics.MetricsTable`
under the ``stream.`` prefix (mirrored into :mod:`repro.obs` when
instrumentation is active); see ``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, AsyncIterator, Dict, List, Optional

from repro.errors import ProtocolError
from repro.streaming import protocol
from repro.streaming.detector import SlidingWindowDetector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.metrics import MetricsTable

__all__ = ["StreamHub", "StreamSession", "Subscriber"]

#: Default bound on one subscriber's undelivered frames.
DEFAULT_SUBSCRIBER_QUEUE = 64

#: Queue sentinel: delivered to a subscriber's pump to end iteration.
_CLOSE = None


class Subscriber:
    """One subscriber's bounded delivery queue.

    Iterate it asynchronously to receive encoded frames; iteration ends
    when the hub closes or the subscriber is evicted.
    """

    def __init__(self, hub: "StreamHub", subscriber_id: int, maxsize: int):
        self._hub = hub
        self.id = subscriber_id
        self.evicted = False
        self.closed_event = asyncio.Event()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._writer: Optional["asyncio.StreamWriter"] = None

    @property
    def pending(self) -> int:
        """Frames queued but not yet delivered."""
        return self._queue.qsize()

    def _offer(self, encoded: Optional[bytes]) -> bool:
        """Enqueue without blocking; ``False`` means the queue was full."""
        try:
            self._queue.put_nowait(encoded)
        except asyncio.QueueFull:
            return False
        return True

    def _force_close(self) -> None:
        """Make the pump observe the close, even mid-write.

        Queues the close sentinel (dropping the oldest undelivered frame
        when full) for a pump waiting on the queue, and aborts the
        attached transport for a pump stalled inside ``drain()`` — a
        consumer being dropped must never hold the server.
        """
        self.closed_event.set()
        while True:
            if self._offer(_CLOSE):
                break
            try:  # drop the oldest undelivered frame to make room
                self._queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - race-free loop
                pass
        if self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()

    async def __aiter__(self) -> AsyncIterator[bytes]:
        while True:
            encoded = await self._queue.get()
            if encoded is _CLOSE:
                return
            yield encoded

    def close(self) -> None:
        """Detach from the hub (normal consumer disconnect)."""
        self._hub.unsubscribe(self)

    async def pump(self, writer: "asyncio.StreamWriter") -> None:
        """Write queued frames to an asyncio writer until close/eviction.

        ``drain()`` is awaited directly — it only yields when the
        transport is actually backpressured, so a healthy consumer
        costs one cheap wakeup per frame.  A consumer whose socket has
        stalled (drain never returns) does not hold the server: the
        moment the hub evicts it, :meth:`_force_close` aborts this
        writer's transport, the drain raises, and the connection dies.
        """
        self._writer = writer
        try:
            async for encoded in self:
                writer.write(encoded)
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # consumer vanished (or was evicted mid-write)
        finally:
            self.close()


class StreamSession:
    """One publisher's validated session with its online detector.

    Created by :meth:`StreamHub.open_session`; feed it decoded frames
    with :meth:`handle` and it returns the reply frames to send back to
    the publisher (empty for most frames; the end-of-stream summary for
    ``end``).

    Raises:
        ProtocolError: (from :meth:`handle`) on any grammar violation —
            the transport turns it into an error frame and a close.
    """

    def __init__(self, hub: "StreamHub"):
        self._hub = hub
        self._validator = protocol.SessionValidator()
        self._detector: Optional[SlidingWindowDetector] = None
        self._event_seq = 0
        self.session_id: Optional[str] = None
        self.closed = False

    @property
    def detector(self) -> Optional[SlidingWindowDetector]:
        """The session's detector (``None`` before the hello)."""
        return self._detector

    @property
    def ended(self) -> bool:
        """Whether the publisher sent a clean end-of-stream."""
        return self._validator.ended

    def handle(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Process one frame; return reply frames for the publisher."""
        metrics = self._hub.metrics
        self._validator.validate(frame)
        metrics.incr("frames")
        frame_type = frame["type"]
        if frame_type == "hello":
            self.session_id = frame["session"]
            scenario = self._validator.scenario
            self._detector = SlidingWindowDetector(
                scenario.window, scenario.threshold
            )
            metrics.incr("sessions")
            self._hub.broadcast(frame)
            return []
        if frame_type == "heartbeat":
            metrics.incr("heartbeats")
            return []
        if frame_type == "reports":
            period = frame["period"]
            reports = self._validator.reports
            metrics.incr("reports", len(reports))
            event = self._detector.observe(period, reports)
            metrics.incr("events")
            if event.fired:
                metrics.incr("detections")
            self._event_seq += 1
            self._hub.broadcast(
                protocol.event_frame(
                    self.session_id, self._event_seq, event.to_dict()
                )
            )
            return []
        # end-of-stream: cross-check the publisher's digest, then
        # summarise back so the publisher can verify online == offline.
        declared = frame.get("event_digest")
        digest = self._detector.digest()
        if declared is not None and declared != digest:
            metrics.incr("digest_mismatches")
            raise ProtocolError(
                f"publisher pinned event digest {declared} but the "
                f"online detector produced {digest}",
                code="digest",
            )
        summary = {
            "type": "end",
            "session": self.session_id,
            "periods": self._validator.last_period,
            "total_reports": self._validator.total_reports,
            "event_digest": digest,
            "detections": self._detector.detection_periods,
        }
        metrics.incr("sessions_completed")
        self._hub.broadcast(summary)
        self.close()
        return [summary]

    def close(self) -> None:
        """Detach the session (publisher disconnect or end-of-stream)."""
        if not self.closed:
            self.closed = True
            self._hub._session_closed(self)


class StreamHub:
    """Session registry plus bounded-queue subscriber fan-out.

    Args:
        metrics: counter table; a fresh ``stream``-prefixed one is
            created when omitted.
        subscriber_queue: per-subscriber bound on undelivered frames.
    """

    def __init__(
        self,
        metrics: Optional["MetricsTable"] = None,
        subscriber_queue: int = DEFAULT_SUBSCRIBER_QUEUE,
    ):
        if subscriber_queue < 1:
            raise ValueError(
                f"subscriber_queue must be >= 1, got {subscriber_queue}"
            )
        if metrics is None:
            # Imported here, not at module top: repro.service imports this
            # module, so a top-level import back into repro.service would
            # be circular.
            from repro.service.metrics import MetricsTable

            metrics = MetricsTable("stream")
        self.metrics = metrics
        self._subscriber_queue = subscriber_queue
        self._subscribers: Dict[int, Subscriber] = {}
        self._sessions: Dict[int, StreamSession] = {}
        self._next_subscriber = 0
        self._next_session = 0
        self.closed = False

    # -- sessions -------------------------------------------------------

    def open_session(self) -> StreamSession:
        """A new publisher session (one per ingest connection)."""
        session = StreamSession(self)
        key = self._next_session
        self._next_session += 1
        self._sessions[key] = session
        session._key = key
        self.metrics.gauge("sessions_active", len(self._sessions))
        return session

    def _session_closed(self, session: StreamSession) -> None:
        self._sessions.pop(getattr(session, "_key", -1), None)
        self.metrics.gauge("sessions_active", len(self._sessions))

    # -- subscribers ----------------------------------------------------

    def subscribe(self) -> Subscriber:
        """Register a subscriber with a fresh bounded queue."""
        subscriber = Subscriber(
            self, self._next_subscriber, self._subscriber_queue
        )
        self._next_subscriber += 1
        self._subscribers[subscriber.id] = subscriber
        self.metrics.incr("subscribers")
        self.metrics.gauge("subscribers_active", len(self._subscribers))
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a subscriber (idempotent) and wake its pump."""
        if self._subscribers.pop(subscriber.id, None) is not None:
            subscriber._force_close()
            self.metrics.gauge("subscribers_active", len(self._subscribers))

    def _evict(self, subscriber: Subscriber) -> None:
        subscriber.evicted = True
        self.metrics.incr("subscriber_evictions")
        self.unsubscribe(subscriber)

    # -- fan-out --------------------------------------------------------

    def broadcast(self, frame: Dict[str, Any]) -> int:
        """Deliver one frame to every subscriber; evict the full ones.

        Returns the number of subscribers the frame was queued for.
        """
        if not self._subscribers:
            return 0
        encoded = protocol.encode_frame(frame)
        delivered = 0
        for subscriber in list(self._subscribers.values()):
            if subscriber._offer(encoded):
                delivered += 1
            else:
                self._evict(subscriber)
        self.metrics.incr("frames_fanned_out", delivered)
        return delivered

    def snapshot(self) -> Dict[str, Any]:
        """Live numbers for ``GET /metrics``."""
        counters, gauges = self.metrics.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "sessions_active": len(self._sessions),
            "subscribers_active": len(self._subscribers),
            "subscriber_queue": self._subscriber_queue,
        }

    def close(self) -> None:
        """Close every subscriber pump (server shutdown)."""
        self.closed = True
        for subscriber in list(self._subscribers.values()):
            self.unsubscribe(subscriber)
