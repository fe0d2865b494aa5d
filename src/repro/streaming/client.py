"""Blocking socket clients for the streaming pipeline.

:class:`StreamPublisher` plays an episode (live-simulated or replayed
from a recording) into a server's framed-TCP ingest listener and
returns the server's end-of-stream summary — including the event digest
the server's *online* detector produced, which callers cross-check
against the offline rule.  :func:`subscribe` consumes the HTTP
``GET /subscribe`` fan-out as an iterator of decoded frames.

Both are deliberately synchronous (plain sockets, no asyncio): they are
what the ``repro stream`` CLI, the acceptance tests, and the PERF-STREAM
benchmark drive the server with, from outside the server's event loop.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ProtocolError, StreamError
from repro.streaming import protocol

__all__ = ["StreamPublisher", "subscribe"]


def _read_frames(
    sock: socket.socket, decoder: protocol.FrameDecoder
) -> Iterator[Dict[str, Any]]:
    """Yield frames as they arrive until the peer closes."""
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            if decoder.buffered_bytes:
                raise ProtocolError(
                    "connection closed mid-frame", code="trailing"
                )
            return
        yield from decoder.feed(chunk)


class StreamPublisher:
    """Publish one episode per session to a stream ingest listener.

    Args:
        host: ingest listener address.
        port: ingest listener port.
        timeout: socket timeout in seconds.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def publish(
        self,
        scenario,
        periods,
        seed: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        event_digest: Optional[str] = None,
        heartbeat_every: int = 0,
    ) -> Dict[str, Any]:
        """Stream one episode; return the server's end-of-stream summary.

        Args:
            scenario: the episode's scenario (handshake payload).
            periods: iterable of ``(period, reports)`` pairs.
            seed: episode seed for the hello frame.
            meta: extra hello metadata.
            event_digest: optional offline event digest to pin in the
                end frame — the server *rejects the stream* if its
                online detector disagrees, making every publish an
                equivalence check.
            heartbeat_every: emit a heartbeat frame after every this
                many periods (0 disables).

        Raises:
            StreamError: when the server answers with an error frame or
                closes without a summary.
        """
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            # One small frame per period and no reads until the end:
            # with Nagle on, each frame would wait for the last one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(
                protocol.encode_frame(
                    protocol.hello_frame(scenario, seed=seed, meta=meta)
                )
            )
            seq = 0
            total = 0
            last_period = 0
            since_heartbeat = 0
            for period, reports in periods:
                report_list = list(reports)
                seq += 1
                sock.sendall(
                    protocol.encode_frame(
                        protocol.reports_frame(seq, period, report_list)
                    )
                )
                total += len(report_list)
                last_period = period
                since_heartbeat += 1
                if heartbeat_every and since_heartbeat >= heartbeat_every:
                    seq += 1
                    sock.sendall(
                        protocol.encode_frame(protocol.heartbeat_frame(seq))
                    )
                    since_heartbeat = 0
            seq += 1
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_frame(
                        seq,
                        periods=last_period,
                        total_reports=total,
                        event_digest=event_digest,
                    )
                )
            )
            decoder = protocol.FrameDecoder()
            for frame in _read_frames(sock, decoder):
                if frame.get("type") == "error":
                    raise StreamError(
                        f"server rejected the stream "
                        f"[{frame.get('code')}]: {frame.get('error')}"
                    )
                if frame.get("type") == "end":
                    return frame
            raise StreamError(
                "server closed the connection without an end-of-stream "
                "summary"
            )

    def publish_recorded(self, recorded) -> Dict[str, Any]:
        """Publish a :class:`~repro.streaming.recorder.RecordedStream`,
        pinning its recorded event digest."""
        return self.publish(
            recorded.scenario,
            recorded.stream(),
            seed=recorded.seed,
            meta=recorded.meta or None,
            event_digest=recorded.end.get("event_digest"),
        )


def subscribe(
    host: str,
    port: int,
    timeout: float = 30.0,
    max_frames: Optional[int] = None,
    until_end: bool = True,
    recv_buffer: Optional[int] = None,
) -> Tuple[socket.socket, Iterator[Dict[str, Any]]]:
    """Open ``GET /subscribe`` and return ``(socket, frame iterator)``.

    The iterator yields decoded frames; with ``until_end`` it stops
    after the first session ``end`` frame, otherwise it runs until the
    server closes or ``max_frames`` is reached.  The socket is returned
    so callers control its lifetime (and can deliberately *not* read —
    the slow-consumer case the eviction tests exercise).

    Raises:
        StreamError: when the server answers anything but 200.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    if recv_buffer is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer)
    sock.sendall(
        f"GET /subscribe HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
    )
    reader = sock.makefile("rb")
    status_line = reader.readline().decode("latin-1")
    parts = status_line.split()
    if len(parts) < 2 or parts[1] != "200":
        reader.close()
        sock.close()
        raise StreamError(f"subscribe failed: {status_line.strip()!r}")
    while True:  # drain response headers
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break

    def frames() -> Iterator[Dict[str, Any]]:
        count = 0
        try:
            for raw in reader:
                if not raw.strip():
                    continue
                frame = json.loads(raw.decode("utf-8"))
                yield frame
                count += 1
                if max_frames is not None and count >= max_frames:
                    return
                if until_end and frame.get("type") == "end":
                    return
        finally:
            reader.close()

    return sock, frames()
