"""The transport layer: HTTP/1.1 and framed-NDJSON plumbing over asyncio.

This is the outermost of the service's three seams (transport → router →
compute pool): it owns the listening sockets, parses request lines,
headers and bodies, enforces the body-size cap, and serialises
``(status, headers, body)`` triples back onto the wire.  It knows
nothing about endpoints, caching, admission, or replicas — everything
semantic happens behind the ``dispatch`` coroutine it is constructed
with, so the orchestration layer can be driven socketlessly in tests
(:meth:`repro.service.server.AnalysisService.dispatch`).

Two listeners share this module:

* :class:`HttpTransport` — the request/response JSON API.  A dispatch
  may return a :class:`StreamingResponse` instead of body bytes, in
  which case the connection stays open and NDJSON frames are written
  until the stream ends (``GET /subscribe``);
* :class:`StreamTransport` — the report-stream ingest listener: framed
  newline-delimited JSON (:mod:`repro.streaming.protocol`) over plain
  TCP.  Each connection gets one session object from the configured
  factory; protocol violations are answered with an ``error`` frame and
  a clean close — never a hang.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "HttpError",
    "HttpTransport",
    "StreamTransport",
    "StreamingResponse",
    "json_body",
    "response_bytes",
]


class HttpError(Exception):
    """An error with a definite HTTP status (and optional extra headers)."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def response_bytes(
    status: int, body: bytes, headers: Optional[Dict[str, str]] = None
) -> bytes:
    """Serialise one ``Connection: close`` HTTP/1.1 response."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class StreamingResponse:
    """A dispatch result whose body is an open-ended NDJSON stream.

    The transport writes the status line and headers (``Connection:
    close``, no ``Content-Length`` — the body ends when the connection
    does), then awaits ``run(writer)``, which pumps frames until the
    stream ends or the client disconnects.

    Args:
        run: ``async (writer) -> None``; must tolerate cancellation and
            connection errors (both mean "the client went away").
        content_type: body media type.
    """

    def __init__(
        self,
        run: Callable[..., Any],
        content_type: str = "application/x-ndjson",
    ):
        self.run = run
        self.content_type = content_type

    def head_bytes(self, status: int, headers: Dict[str, str]) -> bytes:
        """The response head announcing an until-close NDJSON body."""
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {self.content_type}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def json_body(payload: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace.

    Every response body in the service goes through this one function,
    which is what makes cached and coalesced responses byte-identical
    to cold ones.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class HttpTransport:
    """One listening socket feeding a dispatch coroutine.

    Args:
        dispatch: ``async (method, path, body) -> (status, headers,
            payload)``; must never raise for request-level failures.
        max_body_bytes: request-body size cap (413 beyond it).
        on_error: optional callback invoked with the status code of
            every transport-level error response (for metrics).
    """

    def __init__(
        self,
        dispatch: Callable[..., Any],
        max_body_bytes: int = 1 << 20,
        on_error: Optional[Callable[[int], None]] = None,
    ):
        self._dispatch = dispatch
        self.max_body_bytes = max_body_bytes
        self._on_error = on_error
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    @property
    def serving(self) -> bool:
        """Whether the listening socket is open."""
        return self._server is not None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_client, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and cancel in-flight connection handlers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling -------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except HttpError as exc:
                if self._on_error is not None:
                    self._on_error(exc.status)
                status, headers, payload = (
                    exc.status,
                    exc.headers,
                    json_body({"error": str(exc)}),
                )
            else:
                status, headers, payload = await self._dispatch(
                    method, path, body
                )
            if isinstance(payload, StreamingResponse):
                writer.write(payload.head_bytes(status, headers))
                await writer.drain()
                await payload.run(writer)
            else:
                writer.write(response_bytes(status, payload, headers))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError) as exc:
            raise HttpError(400, f"malformed request line: {exc}") from exc
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise HttpError(400, "invalid Content-Length")
        if length < 0:
            raise HttpError(400, "invalid Content-Length")
        if length > self.max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body


class StreamTransport:
    """The report-stream ingest listener: framed NDJSON over TCP.

    Args:
        session_factory: builds one session object per connection; the
            session exposes ``handle(frame) -> [reply frames]`` (raising
            :class:`repro.errors.ProtocolError` on grammar violations),
            an ``ended`` flag, and ``close()``.
        max_frame_bytes: per-frame size cap handed to the decoder.
        write_buffer_high: asyncio write-buffer high-water mark for the
            connection, kept small so a reply to a stalled peer
            backpressures promptly instead of ballooning user-space
            buffers.
    """

    def __init__(
        self,
        session_factory: Callable[[], Any],
        max_frame_bytes: int = 1 << 20,
        write_buffer_high: int = 1 << 14,
    ):
        self._session_factory = session_factory
        self.max_frame_bytes = max_frame_bytes
        self.write_buffer_high = write_buffer_high
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    @property
    def serving(self) -> bool:
        """Whether the ingest socket is open."""
        return self._server is not None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind the ingest socket; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_client, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and cancel in-flight session handlers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Imported here so the HTTP-only service never pays for the
        # streaming stack.
        from repro.errors import ProtocolError
        from repro.streaming.protocol import FrameDecoder, encode_frame, error_frame

        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            writer.transport.set_write_buffer_limits(
                high=self.write_buffer_high
            )
        except (AttributeError, RuntimeError):  # pragma: no cover
            pass
        session = self._session_factory()
        decoder = FrameDecoder(self.max_frame_bytes)
        # A publisher's stream is one-way: the server sends no reply data
        # its ACKs could ride on, so Linux holds each ACK for the ~40 ms
        # delayed-ACK timer, and a Nagle-enabled publisher holds its next
        # small frame until that ACK arrives.  Quick-ACK mode sends the
        # ACK at once; the kernel leaves the mode by itself, so it is
        # re-armed after every read.
        sock = writer.get_extra_info("socket")
        quickack = hasattr(socket, "TCP_QUICKACK") and sock is not None
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if quickack:
                    try:
                        sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
                        )
                    except OSError:  # pragma: no cover - socket already closed
                        quickack = False
                at_eof = not chunk
                try:
                    frames = decoder.feed(chunk) if chunk else []
                    if at_eof and decoder.buffered_bytes:
                        raise ProtocolError(
                            f"{decoder.buffered_bytes} trailing bytes "
                            "after the last complete frame",
                            code="trailing",
                        )
                    for frame in frames:
                        for reply in session.handle(frame):
                            writer.write(encode_frame(reply))
                            await writer.drain()
                        # One read can complete hundreds of frames; yield
                        # between them so subscriber pumps (and other
                        # connections) interleave with a bursty publisher
                        # instead of overflowing their bounded queues.
                        await asyncio.sleep(0)
                except ProtocolError as exc:
                    writer.write(encode_frame(error_frame(str(exc), exc.code)))
                    await writer.drain()
                    break
                if at_eof:
                    break
        except (asyncio.CancelledError, ConnectionError, BrokenPipeError):
            pass
        finally:
            session.close()
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
