"""Wire-level fuzz/regression tests for the stream ingest framing.

Raw sockets against a live :class:`StreamTransport` — no client-library
help — pinning the failure modes a network peer can actually produce:
oversized frames (with and without a terminating newline), frames split
across arbitrary read boundaries, non-JSON lines, and trailing garbage
after a clean end-of-stream.  Every malformed input must produce a
typed error frame and a prompt close — never a hang — and must leave
the server serving.  A paced publisher that leaves Nagle on must see its
frames reach the fan-out promptly, not after a delayed-ACK wait.
"""

import asyncio
import json
import random
import socket
import threading
import time

import pytest

from repro.experiments.presets import small_scenario
from repro.detection.reports import DetectionReport
from repro.geometry.shapes import Point
from repro.service.transport import StreamTransport
from repro.streaming import protocol
from repro.streaming.hub import StreamHub

MAX_FRAME = 4096  # small cap so the oversized cases stay cheap


class _WireServer:
    """A StreamTransport on a background event loop, for raw sockets."""

    def __init__(self, max_frame_bytes=MAX_FRAME):
        self.hub = StreamHub()
        self.transport = StreamTransport(
            self.hub.open_session, max_frame_bytes=max_frame_bytes
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.transport.start("127.0.0.1", 0), self._loop
        ).result(timeout=10)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.transport.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


@pytest.fixture(scope="module")
def server():
    server = _WireServer()
    yield server
    server.stop()


def _exchange(server, payload, timeout=10.0):
    """Send raw bytes, shut down the write side, read frames to EOF."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return [
        json.loads(line) for line in data.splitlines() if line.strip()
    ]


def _session_frames(periods=2, reports_per_period=1, seed=3):
    """One session's encoded frames: hello, reports per period, end.

    Positions are seeded random floats, so frame lengths vary the way a
    real deployment's do.
    """
    scenario = small_scenario()
    rng = random.Random(seed)
    frames = [protocol.hello_frame(scenario, seed=seed)]
    total = 0
    for period in range(1, periods + 1):
        reports = [
            DetectionReport(
                node, period, Point(rng.uniform(0, 1e4), rng.uniform(0, 1e4))
            )
            for node in range(reports_per_period)
        ]
        frames.append(protocol.reports_frame(period, period, reports))
        total += len(reports)
    frames.append(
        protocol.end_frame(
            periods + 1, periods=periods, total_reports=total
        )
    )
    return [protocol.encode_frame(frame) for frame in frames]


def _session_bytes(periods=2, reports_per_period=1, seed=3):
    return b"".join(_session_frames(periods, reports_per_period, seed))


class TestCleanSessions:
    def test_full_session_gets_a_summary(self, server):
        replies = _exchange(server, _session_bytes())
        assert replies[-1]["type"] == "end"
        assert replies[-1]["total_reports"] == 2

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 64])
    def test_frames_split_across_arbitrary_read_boundaries(
        self, server, chunk_size
    ):
        payload = _session_bytes(periods=3, reports_per_period=2)
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            for i in range(0, len(payload), chunk_size):
                sock.sendall(payload[i : i + chunk_size])
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        replies = [json.loads(line) for line in data.splitlines()]
        assert replies[-1]["type"] == "end"
        assert replies[-1]["total_reports"] == 6


class TestMalformedInput:
    def test_oversized_frame_without_newline_is_a_clean_error_not_a_hang(
        self, server
    ):
        # More than the cap, never a newline: the server must answer
        # with a typed error and close — before EOF, so no shutdown.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"x" * (MAX_FRAME + 2))
            data = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        reply = json.loads(data.splitlines()[-1])
        assert reply["type"] == "error"
        assert reply["code"] == "oversized"

    def test_oversized_frame_with_newline_is_rejected(self, server):
        line = b'{"pad":"' + b"y" * MAX_FRAME + b'"}\n'
        replies = _exchange(server, line)
        assert replies[-1] == {
            "type": "error",
            "code": "oversized",
            "error": replies[-1]["error"],
        }

    def test_non_json_line_is_rejected(self, server):
        replies = _exchange(server, b"hello world\n")
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "json"

    def test_first_frame_must_be_hello(self, server):
        payload = protocol.encode_frame(protocol.heartbeat_frame(1))
        replies = _exchange(server, payload)
        assert replies[-1]["code"] == "handshake"

    def test_trailing_frame_after_end_is_rejected(self, server):
        payload = _session_bytes() + protocol.encode_frame(
            protocol.heartbeat_frame(99)
        )
        replies = _exchange(server, payload)
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "trailing"

    def test_trailing_garbage_without_newline_is_rejected_at_eof(
        self, server
    ):
        payload = _session_bytes() + b"garbage-no-newline"
        replies = _exchange(server, payload)
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "trailing"

    def test_fingerprint_lie_is_rejected(self, server):
        scenario = small_scenario()
        hello = protocol.hello_frame(scenario, seed=1)
        hello["fingerprint"] = "0" * 64
        replies = _exchange(server, protocol.encode_frame(hello))
        assert replies[-1]["code"] == "fingerprint"

    def test_server_still_serves_after_abuse(self, server):
        for payload in (b"\xff\xfe\n", b"x" * (MAX_FRAME + 2)):
            try:
                _exchange(server, payload)
            except OSError:  # pragma: no cover - close-race tolerance
                pass
        replies = _exchange(server, _session_bytes(seed=11))
        assert replies[-1]["type"] == "end"


class TestPromptAck:
    def test_paced_nagle_publisher_is_not_held_by_delayed_acks(self):
        # A publisher with Nagle on holds each small frame until the
        # previous one is ACKed.  The ingest stream is one-way, so unless
        # the server ACKs at once, every frame waits out the ~40 ms
        # delayed-ACK timer.
        periods, spacing = 100, 0.002
        hello, *reports, end = _session_frames(
            periods=periods, reports_per_period=16
        )
        server = _WireServer()
        broadcast_at = {}
        broadcast = server.hub.broadcast

        def timed_broadcast(frame):
            if frame["type"] == "event":
                broadcast_at[frame["period"]] = time.perf_counter()
            return broadcast(frame)

        server.hub.broadcast = timed_broadcast
        sent_at = {}
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 0)
                sock.sendall(hello)
                start = time.perf_counter()
                for period, frame in enumerate(reports, start=1):
                    delay = start + period * spacing - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent_at[period] = time.perf_counter()
                    sock.sendall(frame)
                sock.sendall(end)
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    data += chunk
        finally:
            server.stop()
        assert json.loads(data.splitlines()[-1])["type"] == "end"
        gaps = sorted(broadcast_at[p] - sent_at[p] for p in sent_at)
        p90 = gaps[int(0.9 * len(gaps))]
        assert p90 < 0.015, (
            f"p90 send-to-broadcast gap {p90 * 1e3:.1f} ms "
            f"(p50 {gaps[len(gaps) // 2] * 1e3:.1f} ms)"
        )
