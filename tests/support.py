"""Test tooling that no user path runs: trace reading, episode recording
and a one-connection fake sweep coordinator."""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.streaming.recorder import StreamRecorder


def read_jsonl(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into a list of records (blank lines skipped)."""
    records = []
    with open(str(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def record_episode(
    episode,
    path: Union[str, os.PathLike],
    seed: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Record a simulated episode; return its manifest.

    Works for any episode object exposing ``scenario`` and a
    ``stream()`` of ``(period, reports)`` pairs —
    :class:`~repro.simulation.streams.ReportStreamEpisode`,
    :class:`~repro.simulation.streams.MultiTargetEpisode`, or a faulted
    stream materialised through
    :func:`repro.detection.group.deliver_reports`.

    Args:
        episode: the episode to record.
        path: recording file.
        seed: episode seed for the hello frame.
        meta: extra metadata; the episode's own report counters are
            added automatically when present.
    """
    merged: Dict[str, Any] = {}
    for attr in ("true_report_count", "false_report_count"):
        value = getattr(episode, attr, None)
        if value is not None:
            merged[attr] = int(value)
    if hasattr(episode, "num_targets"):
        merged["num_targets"] = int(episode.num_targets)
    if meta:
        merged.update(meta)
    with StreamRecorder(
        path, episode.scenario, seed=seed, meta=merged or None
    ) as recorder:
        for period, reports in episode.stream():
            recorder.write_period(period, list(reports))
    return recorder.close()


@contextlib.contextmanager
def fake_coordinator(
    points: List[Dict[str, Any]], spec: Dict[str, Any]
) -> Iterator[Tuple[str, int]]:
    """A loopback coordinator that welcomes one worker, then hangs up.

    It reads the worker's ``hello``, sends a ``welcome`` carrying
    ``points`` (with their true fingerprint) and ``spec``, and closes
    the connection: a worker that accepts the welcome sees the
    coordinator vanish mid-sweep.  Yields the ``(host, port)`` to join.
    """
    from repro.distributed import protocol
    from repro.experiments.sweeps import _points_fingerprint

    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # nobody joined
        with sock:
            hello = b""
            while not hello.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    return
                hello += chunk
            sock.sendall(protocol.encode_frame(protocol.welcome_frame(
                _points_fingerprint(points), points, spec)))
            # Consume the worker's first request (or its hang-up), so
            # the close below is a clean EOF rather than a reset.
            sock.recv(65536)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)  # wakes an idle accept()
        listener.close()
        thread.join(5.0)
