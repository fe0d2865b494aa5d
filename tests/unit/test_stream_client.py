"""Unit tests for the blocking stream publisher's socket setup."""

import socket
import threading

from repro.experiments.presets import small_scenario
from repro.streaming import protocol
from repro.streaming.client import StreamPublisher


def test_publisher_sets_tcp_nodelay(monkeypatch):
    listener = socket.create_server(("127.0.0.1", 0))
    opened = []
    create_connection = socket.create_connection

    def recording_create_connection(*args, **kwargs):
        sock = create_connection(*args, **kwargs)
        opened.append(sock)
        return sock

    monkeypatch.setattr(
        socket, "create_connection", recording_create_connection
    )
    nodelay = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            decoder = protocol.FrameDecoder()
            frames = []
            while not any(frame["type"] == "end" for frame in frames):
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                frames.extend(decoder.feed(chunk))
            # The publisher is waiting for the summary, so its socket is
            # still open here.
            nodelay.append(
                opened[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            conn.sendall(protocol.encode_frame({"type": "end"}))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        host, port = listener.getsockname()
        summary = StreamPublisher(host, port, timeout=10).publish(
            small_scenario(), [(1, [])]
        )
    finally:
        thread.join(timeout=10)
        listener.close()
    assert summary == {"type": "end"}
    assert len(nodelay) == 1 and nodelay[0] != 0
