"""The report-stream wire protocol: framed newline-delimited JSON.

One frame is one JSON object on one line, serialised canonically
(sorted keys, no whitespace) — the same convention as
:func:`repro.service.transport.json_body`, so a recorded stream is
byte-for-byte what travelled the wire.  A publisher session is::

    {"type":"hello","protocol":1,...}       session handshake
    {"type":"reports","seq":1,"period":1,"reports":[[node,x,y],...]}
    {"type":"heartbeat","seq":2}            (live sockets only)
    ...
    {"type":"end","seq":n,...}              clean end-of-stream

Frame rules (enforced by :class:`SessionValidator`, violations raise
:class:`~repro.errors.ProtocolError`):

* the first frame must be ``hello`` and carry a supported ``protocol``
  version, the scenario, and the scenario fingerprint (which must match
  the scenario — a session cannot lie about what it is replaying);
* ``seq`` starts at 1 after the hello and increments by exactly 1 on
  every subsequent frame (heartbeats included), so a dropped or
  duplicated frame is detected at the first opportunity;
* ``period`` is 1-based and strictly increasing across ``reports``
  frames; every report in a frame carries the frame's period;
* nothing may follow ``end`` — trailing garbage is a protocol error,
  not silently ignored;
* no line (frame) may exceed :data:`MAX_FRAME_BYTES`.

:class:`FrameDecoder` is an incremental decoder: feed it arbitrary byte
chunks (frames split across any read boundary reassemble correctly) and
pop complete frames; it raises on oversized or non-JSON lines without
ever buffering unboundedly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.core.scenario import Scenario
from repro.detection.reports import DetectionReport
from repro.errors import ProtocolError
from repro.geometry.shapes import Point
from repro.obs import scenario_fingerprint

__all__ = [
    "FRAME_TYPES",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SessionValidator",
    "decode_session",
    "encode_frame",
    "end_frame",
    "error_frame",
    "event_frame",
    "heartbeat_frame",
    "hello_frame",
    "reports_frame",
    "reports_from_wire",
    "reports_to_wire",
    "session_id",
]

#: Wire protocol version carried in every ``hello``.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's serialised size.  A ``reports`` frame for a
#: whole period of a large deployment is a few tens of KiB; anything
#: beyond this is a broken or malicious peer.
MAX_FRAME_BYTES = 1 << 20

#: Frame types a session may carry (``error`` is server-to-client only).
FRAME_TYPES = ("hello", "reports", "heartbeat", "end", "event", "error")


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Canonical bytes for one frame: sorted-key JSON plus newline."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


def session_id(fingerprint: str, seed: Optional[int]) -> str:
    """Deterministic 12-hex session identifier.

    Derived from the scenario fingerprint and episode seed so recording
    the same episode twice yields byte-identical files.
    """
    payload = f"{fingerprint}:{seed}".encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:12]


def reports_to_wire(reports: List[DetectionReport]) -> List[List[Any]]:
    """Compact wire form: ``[node_id, x, y]`` per report.

    The period is carried once on the frame, not per report.
    """
    return [
        [report.node_id, report.position.x, report.position.y]
        for report in reports
    ]


def reports_from_wire(wire: Any, period: int) -> List[DetectionReport]:
    """Inverse of :func:`reports_to_wire` (validates shapes).

    Raises:
        ProtocolError: on malformed report entries: not ``[node, x, y]``,
            a non-integer node, or a bool or non-finite coordinate.
    """
    if not isinstance(wire, list):
        raise ProtocolError(
            f"'reports' must be a list, got {type(wire).__name__}",
            code="reports",
        )
    out: List[DetectionReport] = []
    for entry in wire:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or isinstance(entry[0], (bool, float))
            or not isinstance(entry[0], int)
            or isinstance(entry[1], bool)
            or isinstance(entry[2], bool)
            or not isinstance(entry[1], (int, float))
            or not isinstance(entry[2], (int, float))
        ):
            raise ProtocolError(
                f"malformed report entry {entry!r} (want [node, x, y])",
                code="reports",
            )
        try:
            x, y = float(entry[1]), float(entry[2])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("coordinates must be finite")
            out.append(DetectionReport(entry[0], period, Point(x, y)))
        except Exception as exc:
            raise ProtocolError(
                f"invalid report {entry!r}: {exc}", code="reports"
            ) from exc
    return out


# ----------------------------------------------------------------------
# Frame constructors
# ----------------------------------------------------------------------


def hello_frame(
    scenario: Scenario,
    seed: Optional[int] = None,
    periods: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The session handshake frame."""
    fingerprint = scenario_fingerprint(scenario)
    frame: Dict[str, Any] = {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "session": session_id(fingerprint, seed),
        "fingerprint": fingerprint,
        "scenario": scenario.to_dict(),
        "seed": seed,
        "periods": scenario.window if periods is None else periods,
    }
    if meta:
        frame["meta"] = meta
    return frame


def reports_frame(
    seq: int, period: int, reports: List[DetectionReport]
) -> Dict[str, Any]:
    """One sensing period's reports."""
    return {
        "type": "reports",
        "seq": seq,
        "period": period,
        "reports": reports_to_wire(reports),
    }


def heartbeat_frame(seq: int) -> Dict[str, Any]:
    """Keep-alive between sparse periods (never recorded)."""
    return {"type": "heartbeat", "seq": seq}


def end_frame(
    seq: int,
    periods: int,
    total_reports: int,
    event_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """Clean end-of-stream with the episode's summary digests."""
    frame: Dict[str, Any] = {
        "type": "end",
        "seq": seq,
        "periods": periods,
        "total_reports": total_reports,
    }
    if event_digest is not None:
        frame["event_digest"] = event_digest
    return frame


def event_frame(
    session: str, seq: int, event: Dict[str, Any]
) -> Dict[str, Any]:
    """A server-side detection event fanned out to subscribers."""
    frame = {"type": "event", "session": session, "seq": seq}
    frame.update(event)
    return frame


def error_frame(message: str, code: str = "protocol") -> Dict[str, Any]:
    """The frame a server sends before closing on a protocol violation."""
    return {"type": "error", "code": code, "error": message}


# ----------------------------------------------------------------------
# Incremental decoding
# ----------------------------------------------------------------------


class FrameDecoder:
    """Reassemble frames from arbitrary byte chunks.

    Args:
        max_frame_bytes: reject any line longer than this *before*
            buffering it whole — an oversized frame errors out as soon
            as the cap is crossed, never hanging on a newline that may
            never come.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._max = max_frame_bytes
        self._buffer = bytearray()
        self._frames: List[Dict[str, Any]] = []

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for a newline."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Dict[str, Any]]:
        """Add bytes; return every frame completed by this chunk.

        Raises:
            ProtocolError: on an oversized or non-JSON-object line.
        """
        self._buffer.extend(chunk)
        out: List[Dict[str, Any]] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) > self._max:
                    raise ProtocolError(
                        f"frame exceeds {self._max} bytes without a "
                        "newline",
                        code="oversized",
                    )
                break
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if len(line) > self._max:
                raise ProtocolError(
                    f"frame of {len(line)} bytes exceeds the "
                    f"{self._max}-byte limit",
                    code="oversized",
                )
            if not line.strip():
                continue  # blank lines are permitted padding
            try:
                frame = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"frame is not valid JSON: {exc}", code="json"
                ) from exc
            if not isinstance(frame, dict):
                raise ProtocolError(
                    f"frame must be a JSON object, got "
                    f"{type(frame).__name__}",
                    code="json",
                )
            out.append(frame)
        return out


class SessionValidator:
    """Enforce the session grammar over a decoded frame sequence.

    Call :meth:`validate` with each frame in arrival order; it returns
    the frame (for chaining) and raises :class:`ProtocolError` on the
    first violation.  After the ``end`` frame any further frame — or
    any trailing bytes the decoder turns into one — is an error.

    Attributes:
        reports: the reports of the last accepted ``reports`` frame,
            parsed while shape-checking it, so a consumer need not parse
            the frame a second time.
    """

    def __init__(self) -> None:
        self.hello: Optional[Dict[str, Any]] = None
        self.scenario: Optional[Scenario] = None
        self.reports: List[DetectionReport] = []
        self.ended = False
        self._seq = 0
        self._period = 0
        self._total_reports = 0

    @property
    def last_period(self) -> int:
        """Highest period accepted so far."""
        return self._period

    @property
    def total_reports(self) -> int:
        """Reports accepted across all ``reports`` frames."""
        return self._total_reports

    def validate(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Check one frame against the grammar; return it.

        Raises:
            ProtocolError: on any violation (typed via ``code``).
        """
        frame_type = frame.get("type")
        if self.ended:
            raise ProtocolError(
                f"frame after end-of-stream (type={frame_type!r})",
                code="trailing",
            )
        if self.hello is None:
            if frame_type != "hello":
                raise ProtocolError(
                    f"first frame must be 'hello', got {frame_type!r}",
                    code="handshake",
                )
            self._validate_hello(frame)
            self.hello = frame
            return frame
        if frame_type == "hello":
            raise ProtocolError("duplicate 'hello' frame", code="handshake")
        if frame_type not in ("reports", "heartbeat", "end"):
            raise ProtocolError(
                f"unknown frame type {frame_type!r}", code="type"
            )
        seq = frame.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ProtocolError(
                f"frame is missing an integer 'seq' (got {seq!r})",
                code="seq",
            )
        if seq != self._seq + 1:
            raise ProtocolError(
                f"out-of-sequence frame: expected seq {self._seq + 1}, "
                f"got {seq}",
                code="seq",
            )
        self._seq = seq
        if frame_type == "reports":
            self._validate_reports(frame)
        elif frame_type == "end":
            self._validate_end(frame)
            self.ended = True
        return frame

    # -- per-type checks -----------------------------------------------

    def _validate_hello(self, frame: Dict[str, Any]) -> None:
        version = frame.get("protocol")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(this peer speaks {PROTOCOL_VERSION})",
                code="version",
            )
        scenario_dict = frame.get("scenario")
        if not isinstance(scenario_dict, dict):
            raise ProtocolError(
                "'hello' must carry the scenario object", code="handshake"
            )
        try:
            scenario = Scenario.from_dict(scenario_dict)
        except Exception as exc:
            raise ProtocolError(
                f"invalid scenario in 'hello': {exc}", code="handshake"
            ) from exc
        fingerprint = frame.get("fingerprint")
        expected = scenario_fingerprint(scenario)
        if fingerprint != expected:
            raise ProtocolError(
                f"scenario fingerprint mismatch: hello claims "
                f"{fingerprint!r}, scenario hashes to {expected!r}",
                code="fingerprint",
            )
        self.scenario = scenario

    def _validate_reports(self, frame: Dict[str, Any]) -> None:
        period = frame.get("period")
        if not isinstance(period, int) or isinstance(period, bool):
            raise ProtocolError(
                f"'reports' frame is missing an integer 'period' "
                f"(got {period!r})",
                code="period",
            )
        if period <= self._period:
            raise ProtocolError(
                f"periods must be strictly increasing: got {period} "
                f"after {self._period}",
                code="period",
            )
        self._period = period
        # Shape-check now so a malformed frame fails at arrival, not at
        # detection time.
        self.reports = reports_from_wire(frame.get("reports"), period)
        self._total_reports += len(self.reports)

    def _validate_end(self, frame: Dict[str, Any]) -> None:
        declared = frame.get("total_reports")
        if declared is not None and declared != self._total_reports:
            raise ProtocolError(
                f"end-of-stream declares {declared} reports but "
                f"{self._total_reports} arrived",
                code="end",
            )
        periods = frame.get("periods")
        if periods is not None and periods < self._period:
            raise ProtocolError(
                f"end-of-stream declares {periods} periods but period "
                f"{self._period} was streamed",
                code="end",
            )


def decode_session(
    data: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Decode and validate one complete session from raw bytes.

    Returns ``(hello, frames)`` where ``frames`` excludes the hello.

    Raises:
        ProtocolError: on framing or grammar violations, including a
            missing ``end`` frame.
    """
    decoder = FrameDecoder(max_frame_bytes)
    validator = SessionValidator()
    frames: List[Dict[str, Any]] = []
    for frame in decoder.feed(data):
        validator.validate(frame)
        if validator.hello is not frame:
            frames.append(frame)
    if decoder.buffered_bytes:
        raise ProtocolError(
            f"{decoder.buffered_bytes} trailing bytes after the last "
            "complete frame",
            code="trailing",
        )
    if validator.hello is None:
        raise ProtocolError("empty session (no 'hello')", code="handshake")
    if not validator.ended:
        raise ProtocolError(
            "session ended without an 'end' frame", code="end"
        )
    return validator.hello, frames
