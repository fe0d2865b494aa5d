"""Record / replay of report streams: live sessions as regression fixtures.

A recording is the wire session itself — canonical NDJSON frames, one
per line, exactly as :mod:`repro.streaming.protocol` would put them on a
socket (heartbeats excepted: they are a socket-liveness device and are
never recorded).  Because both the recorder and the transport serialise
through :func:`~repro.streaming.protocol.encode_frame`, *record → replay
→ re-record is byte-identical* — the round-trip contract the golden
corpus under ``tests/data/streams/`` pins.

Next to every recording sits ``<name>.manifest.json``: the scenario
fingerprint, seed, period/report counts, the detection periods the
offline rule produces, and two digests —

* ``frame_digest``: sha256 of the recording bytes (file integrity);
* ``event_digest``: sha256 of the canonical
  :class:`~repro.streaming.detector.DetectionEvent` sequence a
  detector must emit when the stream is replayed (behavioural pin).

Replaying a recording through :class:`SlidingWindowDetector` and
checking both digests is the regression test any live session can be
turned into.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.scenario import Scenario
from repro.detection.reports import DetectionReport
from repro.errors import StreamError
from repro.streaming import protocol
from repro.streaming.detector import SlidingWindowDetector, event_digest

__all__ = [
    "MANIFEST_SUFFIX",
    "RecordedStream",
    "StreamRecorder",
    "StreamReplayer",
]

#: Manifest file name: ``<recording>.manifest.json`` beside the recording.
MANIFEST_SUFFIX = ".manifest.json"

_PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class RecordedStream:
    """One fully parsed and validated recording.

    Attributes:
        scenario: the episode's scenario (from the hello frame).
        hello: the raw hello frame.
        periods: ``(period, reports)`` pairs in stream order (every
            streamed period, including empty ones).
        end: the raw end frame.
        path: where the recording was read from, when applicable.
    """

    scenario: Scenario
    hello: Dict[str, Any]
    periods: List[Any]
    end: Dict[str, Any]
    path: Optional[pathlib.Path] = field(default=None, compare=False)

    @property
    def fingerprint(self) -> str:
        """The scenario fingerprint the session handshook with."""
        return self.hello["fingerprint"]

    @property
    def seed(self) -> Optional[int]:
        """The episode seed, when the recorder knew it."""
        return self.hello.get("seed")

    @property
    def meta(self) -> Dict[str, Any]:
        """Free-form episode metadata carried in the hello frame."""
        return dict(self.hello.get("meta", {}))

    @property
    def total_reports(self) -> int:
        """Reports across all periods."""
        return sum(len(reports) for _, reports in self.periods)

    def stream(self):
        """Iterate ``(period, reports)`` pairs — feedable to a detector."""
        for period, reports in self.periods:
            yield period, reports

    def detect(
        self, detector: Optional[SlidingWindowDetector] = None
    ) -> SlidingWindowDetector:
        """Replay through a detector (a fresh scenario-shaped one by
        default) and return it."""
        if detector is None:
            detector = SlidingWindowDetector(
                self.scenario.window, self.scenario.threshold
            )
        detector.process_stream(self.stream())
        return detector


class StreamRecorder:
    """Write one episode as a canonical NDJSON recording.

    Streams frames through the same encoder as the wire protocol and
    runs a :class:`SlidingWindowDetector` alongside, so the manifest's
    ``event_digest`` is computed from the very bytes being written.

    Args:
        path: recording file (created/truncated).
        scenario: the episode's scenario.
        seed: episode seed recorded in the hello (for provenance and
            deterministic session ids).
        meta: free-form JSON-serialisable episode metadata (e.g. true /
            false report counts, fault model) carried in the hello.

    Raises:
        StreamError: on use-after-close or out-of-order writes.
    """

    def __init__(
        self,
        path: _PathLike,
        scenario: Scenario,
        seed: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.path = pathlib.Path(path)
        self.scenario = scenario
        self._hello = protocol.hello_frame(
            scenario, seed=seed, periods=None, meta=meta
        )
        self._validator = protocol.SessionValidator()
        self._detector = SlidingWindowDetector(
            scenario.window, scenario.threshold
        )
        self._hash = hashlib.sha256()
        self._file = open(self.path, "wb")
        self._seq = 0
        self._manifest: Optional[Dict[str, Any]] = None
        self._write(self._hello)

    def _write(self, frame: Dict[str, Any]) -> None:
        encoded = protocol.encode_frame(self._validator.validate(frame))
        self._file.write(encoded)
        self._hash.update(encoded)

    def write_period(
        self, period: int, reports: List[DetectionReport]
    ) -> None:
        """Record one period's reports (periods strictly increasing)."""
        if self._file.closed:
            raise StreamError(f"recorder for {self.path} is closed")
        self._seq += 1
        self._write(protocol.reports_frame(self._seq, period, list(reports)))
        self._detector.observe(period, reports)

    def close(self) -> Dict[str, Any]:
        """Write the end frame, the manifest sidecar, and return the
        manifest."""
        if self._manifest is not None:
            return self._manifest
        self._seq += 1
        self._write(
            protocol.end_frame(
                self._seq,
                periods=self._validator.last_period,
                total_reports=self._validator.total_reports,
                event_digest=self._detector.digest(),
            )
        )
        self._file.close()
        self._manifest = {
            "protocol": protocol.PROTOCOL_VERSION,
            "session": self._hello["session"],
            "fingerprint": self._hello["fingerprint"],
            "scenario": self.scenario.to_dict(),
            "seed": self._hello.get("seed"),
            "meta": self._hello.get("meta", {}),
            "periods": self._validator.last_period,
            "total_reports": self._validator.total_reports,
            "detection_periods": self._detector.detection_periods,
            "event_digest": self._detector.digest(),
            "frame_digest": self._hash.hexdigest(),
        }
        manifest_path = self.path.with_name(self.path.name + MANIFEST_SUFFIX)
        manifest_path.write_text(
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n"
        )
        return self._manifest

    def __enter__(self) -> "StreamRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._file.closed:
            self._file.close()


class StreamReplayer:
    """Read, validate, and expose one recording.

    Args:
        path: the NDJSON recording.
        verify_manifest: when ``True`` (default) and the sidecar
            manifest exists, the recording's bytes and replayed event
            digest are checked against it — a recording that drifted
            from its manifest fails loudly, not silently.

    Raises:
        StreamError: on unreadable files or manifest mismatches.
        ProtocolError: on framing/grammar violations in the recording.
    """

    def __init__(self, path: _PathLike, verify_manifest: bool = True):
        self.path = pathlib.Path(path)
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise StreamError(
                f"cannot read recording {self.path}: {exc}"
            ) from exc
        self._frame_digest = hashlib.sha256(data).hexdigest()
        hello, frames = protocol.decode_session(data)
        scenario = Scenario.from_dict(hello["scenario"])
        periods = []
        end: Dict[str, Any] = {}
        for frame in frames:
            if frame["type"] == "reports":
                periods.append(
                    (
                        frame["period"],
                        protocol.reports_from_wire(
                            frame["reports"], frame["period"]
                        ),
                    )
                )
            elif frame["type"] == "end":
                end = frame
        self.recorded = RecordedStream(
            scenario=scenario,
            hello=hello,
            periods=periods,
            end=end,
            path=self.path,
        )
        self.manifest = self._load_manifest()
        if verify_manifest and self.manifest is not None:
            self._verify()

    @property
    def frame_digest(self) -> str:
        """sha256 of the recording file's bytes."""
        return self._frame_digest

    def _load_manifest(self) -> Optional[Dict[str, Any]]:
        manifest_path = self.path.with_name(self.path.name + MANIFEST_SUFFIX)
        if not manifest_path.exists():
            return None
        try:
            return json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StreamError(
                f"unreadable manifest {manifest_path}: {exc}"
            ) from exc

    def _verify(self) -> None:
        manifest = self.manifest or {}
        if manifest.get("frame_digest") != self._frame_digest:
            raise StreamError(
                f"recording {self.path} does not match its manifest: "
                f"frame digest {self._frame_digest} != recorded "
                f"{manifest.get('frame_digest')}"
            )
        declared = manifest.get("event_digest")
        replayed = self.recorded.detect().digest()
        if declared is not None and declared != replayed:
            raise StreamError(
                f"replaying {self.path} produced event digest {replayed} "
                f"but the manifest pins {declared} — the detector's "
                "decisions changed"
            )

    def rerecord(self, path: _PathLike) -> Dict[str, Any]:
        """Write this recording back out through the recorder.

        The result must be byte-identical to the original file — the
        round-trip contract tests assert it.
        """
        recorded = self.recorded
        with StreamRecorder(
            path,
            recorded.scenario,
            seed=recorded.seed,
            meta=recorded.meta or None,
        ) as recorder:
            for period, reports in recorded.stream():
                recorder.write_period(period, reports)
        return recorder.close()
