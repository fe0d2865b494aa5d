"""repro.streaming — the real-time detection pipeline.

Everything else in the reproduction evaluates the paper's k-of-M rule
(Eq. 12) offline; this package is the *online* base station:

* :mod:`repro.streaming.protocol` — the framed newline-delimited-JSON
  report-stream wire protocol (session handshake carrying the scenario
  fingerprint, sequenced per-period frames, heartbeats, clean
  end-of-stream);
* :mod:`repro.streaming.detector` —
  :class:`~repro.streaming.detector.SlidingWindowDetector`, the
  ``M``-period window as an incremental sliding sum, emitting a
  :class:`~repro.streaming.detector.DetectionEvent` the moment each
  period closes — with decisions **bitwise identical** to the offline
  :class:`~repro.detection.group.GroupDetector` on the same stream;
* :mod:`repro.streaming.recorder` — record / replay: any live session
  becomes a deterministic regression fixture (JSONL recording plus a
  manifest pinning fingerprint, seed, period count, and event digests);
* :mod:`repro.streaming.hub` — per-session online detection plus
  ``/subscribe`` fan-out with bounded per-subscriber queues and
  slow-consumer eviction (``stream.*`` metrics);
* :mod:`repro.streaming.client` — blocking publisher/subscriber clients
  behind ``repro stream``.

See ``docs/streaming.md`` for the protocol and the online-equals-offline
equivalence contract.
"""

from repro.streaming.detector import (
    DetectionEvent,
    SlidingWindowDetector,
    event_digest,
)
from repro.streaming.hub import StreamHub, StreamSession, Subscriber
from repro.streaming.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SessionValidator,
    decode_session,
    encode_frame,
)
from repro.streaming.recorder import (
    RecordedStream,
    StreamRecorder,
    StreamReplayer,
)

__all__ = [
    "DetectionEvent",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RecordedStream",
    "SessionValidator",
    "SlidingWindowDetector",
    "StreamHub",
    "StreamRecorder",
    "StreamReplayer",
    "StreamSession",
    "Subscriber",
    "decode_session",
    "encode_frame",
    "event_digest",
]
