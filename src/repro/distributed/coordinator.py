"""The sweep coordinator: canonical point list, leases, merged rows.

One :class:`SweepCoordinator` owns one sweep: the ordered point list,
its checkpoint fingerprint, the :class:`~repro.distributed.leases.LeaseBook`
that shards it, and the completed-row map.  Workers connect over TCP,
handshake (``hello``/``welcome``), and then drive the book through the
:mod:`repro.distributed.protocol` grammar; every book transition happens
under one lock, and the directives it returns are queued to the affected
connections before the lock is released, so a parked thief receives its
stolen lease without polling.  The blocking socket writes themselves
happen on a per-connection writer thread, off the lock — one worker
with a full send buffer cannot stall book transitions for the fleet.

Durability is delegated entirely to the existing sweep checkpoint
format: each arriving row is written through
:func:`repro.experiments.sweeps._write_checkpoint` (atomic temp-file +
``os.replace``, indexes in sorted order, rows canonical), so the file on
disk after a crash is exactly what a serial ``grid_sweep`` would have
left behind — any coordinator, serial or distributed, can resume it.

A connection that drops without a ``bye`` is a **worker crash**: its
lease returns to the pool (``dist.worker_crashes``), and parked workers
are re-served immediately.  :meth:`abort` simulates a *coordinator*
crash for chaos tests: every socket closes abruptly, no farewell
frames, the checkpoint stays partial.

Counters (``MetricsTable("dist")``, mirrored into the obs manifest):
``dist.shards`` leases granted (initial splits and steals alike),
``dist.steals`` of which were stolen from a peer's tail,
``dist.worker_crashes`` connections lost without a ``bye``, and
``dist.resumes`` points served from the checkpoint at startup.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, SimulationError
from repro.experiments.sweeps import (
    _load_checkpoint,
    _points_fingerprint,
    _write_checkpoint,
    canonical_row,
)
from repro.service.metrics import MetricsTable
from repro.distributed import protocol
from repro.distributed.leases import Directive, LeaseBook

__all__ = ["SweepCoordinator"]


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down both ways, then close it (idempotent).

    On Linux ``close()`` alone does not wake a thread blocked in
    ``accept()`` or ``recv()`` on the socket; ``shutdown()`` does.
    """
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


class _Connection:
    """One worker's socket plus its outbound frame queue.

    :meth:`send` only enqueues (it never blocks), so it is safe to call
    while holding the coordinator's lock; a dedicated writer thread
    performs the blocking ``sendall`` calls in enqueue order, which
    preserves per-connection frame order exactly as the book emitted it.
    """

    def __init__(self, sock: socket.socket, worker: str) -> None:
        self.sock = sock
        self.worker = worker
        self.said_bye = False
        self._outbound: "queue.SimpleQueue[Optional[bytes]]" = (
            queue.SimpleQueue()
        )
        self._writer = threading.Thread(
            target=self._write_loop, name=f"dist-send-{worker}", daemon=True
        )
        self._writer.start()

    def send(self, frame: Dict[str, Any]) -> None:
        """Queue ``frame`` for the writer thread; never blocks."""
        self._outbound.put(protocol.encode_frame(frame))

    def _write_loop(self) -> None:
        while True:
            payload = self._outbound.get()
            if payload is None:
                return
            try:
                self.sock.sendall(payload)
            except OSError:
                # The peer died mid-send; the reader side sees EOF and
                # runs the crash path.  Stop writing, keep draining so
                # close() does not hang on the sentinel.
                return

    def close(self, drain: bool = True) -> None:
        """Stop the writer, then shut down and close the socket.

        ``drain=True`` (graceful) flushes already-queued frames first,
        bounded so a wedged peer cannot hang shutdown; ``drain=False``
        (abort) closes the socket out from under the writer, mid-frame.
        A handler thread blocked in ``recv()`` on it reads EOF.
        """
        self._outbound.put(None)
        if drain:
            self._writer.join(5.0)
        _hang_up(self.sock)


class SweepCoordinator:
    """Serve one sweep's points to a fleet of work-stealing workers.

    Args:
        points: the sweep's point list, in sweep order; must be plain
            JSON values (they cross the wire verbatim).
        spec: the compute spec workers resolve into a point function
            (see :func:`repro.distributed.worker.resolve_spec`).
        checkpoint: optional checkpoint path — loaded on :meth:`start`
            (already-completed points are never re-leased) and written
            after every arriving row.
        host / port: bind address; ``port=0`` picks a free port
            (read it back from :attr:`address`).
        on_progress: optional ``callback(completed, total)`` invoked
            after every arriving row — the chaos harness's trigger
            point.
    """

    def __init__(
        self,
        points: List[Dict[str, Any]],
        spec: Dict[str, Any],
        checkpoint: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        on_progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self._points = list(points)
        self._spec = dict(spec)
        self._fingerprint = _points_fingerprint(self._points)
        self._checkpoint = checkpoint
        self._bind = (host, port)
        self._on_progress = on_progress
        self.metrics = MetricsTable("dist")
        self._lock = threading.RLock()
        self._rows: Dict[int, Any] = {}
        self._book: Optional[LeaseBook] = None
        self._stats_seen = {"shards": 0, "steals": 0}
        self._connections: Dict[str, _Connection] = {}
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._accepted: List[socket.socket] = []
        self._done = threading.Event()
        self._closing = False
        self._aborted = False

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise SimulationError("coordinator is not started")
        return self._listener.getsockname()[:2]

    @property
    def fingerprint(self) -> str:
        """The sweep's checkpoint fingerprint."""
        return self._fingerprint

    @property
    def done(self) -> bool:
        """Every point merged (or the coordinator was aborted)."""
        return self._done.is_set()

    @property
    def completed_count(self) -> int:
        """Rows merged so far (checkpoint-loaded rows included)."""
        with self._lock:
            return len(self._rows)

    def start(self) -> "SweepCoordinator":
        """Load the checkpoint, bind the socket, start accepting."""
        if self._listener is not None:
            raise SimulationError("coordinator is already started")
        if self._checkpoint is not None:
            loaded = _load_checkpoint(self._checkpoint, self._fingerprint)
            self._rows = {
                index: canonical_row(row) for index, row in loaded.items()
            }
            if self._rows:
                self.metrics.incr("resumes", len(self._rows))
                self.metrics.event(
                    "resume",
                    checkpoint=self._checkpoint,
                    points=sorted(self._rows),
                )
        self._book = LeaseBook(len(self._points), completed=self._rows)
        if self._book.done:
            self._done.set()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._bind)
        listener.listen(32)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Block until every point is merged; return rows in sweep order.

        Raises:
            SimulationError: on timeout or after :meth:`abort`.
        """
        if not self._done.wait(timeout):
            raise SimulationError(
                f"sweep did not complete within {timeout}s "
                f"({self.completed_count}/{len(self._points)} points)"
            )
        if self._aborted:
            raise SimulationError("coordinator was aborted mid-sweep")
        with self._lock:
            return [self._rows[index] for index in range(len(self._points))]

    def close(self) -> None:
        """Graceful shutdown: stop accepting, close worker sockets.

        Queued frames (typically the final ``done`` fan-out) are flushed
        before each socket closes.
        """
        self._close(drain=True)

    def _close(self, drain: bool) -> None:
        self._closing = True
        if self._listener is not None:
            _hang_up(self._listener)
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            connection.close(drain=drain)
        # Sockets accepted but not yet admitted (no `hello` read) belong
        # to no connection; wake their handlers too.
        for sock in self._accepted:
            _hang_up(sock)
        # Every handler now reads EOF and unwinds; wait for that so none
        # outlives the coordinator, finished sweep or not.
        deadline = time.monotonic() + 5.0
        for handler in self._threads:
            if handler is not threading.current_thread():
                handler.join(max(0.0, deadline - time.monotonic()))

    def abort(self) -> None:
        """Simulate a coordinator crash: drop everything, mid-word.

        Sockets close abruptly (workers see EOF, not ``done``), no
        final checkpoint write happens beyond the per-row ones already
        on disk, and :meth:`wait` raises.  The checkpoint file is left
        exactly as a ``kill -9`` of the coordinator process would leave
        it — the resume path's test fixture.
        """
        self._aborted = True
        self.metrics.event("abort", completed=self.completed_count)
        self._close(drain=False)
        self._done.set()

    # -- socket plumbing -----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="dist-conn",
                daemon=True,
            )
            self._accepted.append(sock)
            handler.start()
            self._threads.append(handler)

    def _serve_connection(self, sock: socket.socket) -> None:
        decoder = protocol.FrameDecoder(protocol.MAX_SWEEP_FRAME_BYTES)
        pending: List[Dict[str, Any]] = []
        connection: Optional[_Connection] = None
        try:
            frame = self._read_frame(sock, decoder, pending)
            if frame is None:
                return
            worker = protocol.validate_hello(frame)
            connection = self._admit(sock, worker)
            if connection is None:
                return
            while True:
                frame = self._read_frame(sock, decoder, pending)
                if frame is None:
                    break
                self._handle_frame(connection, frame)
                if connection.said_bye:
                    break
        except (ProtocolError, SimulationError) as exc:
            # A grammar violation or an illegal book transition (e.g. a
            # result for an unowned index): tell the worker which rule
            # it broke, then drop it — its lease is reclaimed below.
            code = exc.code if isinstance(exc, ProtocolError) else "state"
            frame = protocol.error_frame(str(exc), code=code)
            if connection is not None:
                connection.send(frame)
            else:
                try:
                    sock.sendall(protocol.encode_frame(frame))
                except OSError:
                    pass
        except OSError:
            pass  # connection dropped; the crash path below reclaims
        finally:
            self._depart(connection)
            if connection is not None:
                connection.close()
            else:
                _hang_up(sock)

    @staticmethod
    def _read_frame(
        sock: socket.socket,
        decoder: protocol.FrameDecoder,
        pending: List[Dict[str, Any]],
    ) -> Optional[Dict[str, Any]]:
        """Next frame from ``sock``; ``None`` on EOF.

        ``pending`` buffers frames that arrived in the same chunk as an
        earlier one (the decoder has no pushback).
        """
        while not pending:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            pending.extend(decoder.feed(chunk))
        return pending.pop(0)

    # -- session grammar -----------------------------------------------

    def _admit(
        self, sock: socket.socket, worker: str
    ) -> Optional[_Connection]:
        with self._lock:
            assert self._book is not None
            duplicate = worker in self._connections
            if not duplicate:
                connection = _Connection(sock, worker)
                self._connections[worker] = connection
                self._book.register(worker)
                self.metrics.event("worker_joined", worker=worker)
        if duplicate:
            try:
                sock.sendall(
                    protocol.encode_frame(
                        protocol.error_frame(
                            f"worker name {worker!r} is already connected",
                            code="duplicate",
                        )
                    )
                )
            except OSError:
                pass
            return None
        connection.send(
            protocol.welcome_frame(self._fingerprint, self._points, self._spec)
        )
        return connection

    def _handle_frame(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        frame_type = frame.get("type")
        worker = connection.worker
        if frame_type == "request":
            with self._lock:
                assert self._book is not None
                directives = self._book.request(worker)
                self._sync_stats()
                if not any(d[1] == worker for d in directives):
                    connection.send(protocol.wait_frame())
                self._dispatch(directives)
        elif frame_type == "result":
            index, row = frame.get("index"), frame.get("row")
            if not isinstance(index, int) or not isinstance(row, dict):
                raise ProtocolError(
                    f"malformed result frame (index={index!r})", code="result"
                )
            self._merge(worker, index, row)
        elif frame_type == "revoked":
            at = frame.get("at")
            if not isinstance(at, int):
                raise ProtocolError(
                    f"'revoked' must carry an integer 'at', got {at!r}",
                    code="revoked",
                )
            with self._lock:
                assert self._book is not None
                directives = self._book.ack_revoke(worker, at)
                self._sync_stats()
                self._dispatch(directives)
        elif frame_type == "bye":
            connection.said_bye = True
        else:
            raise ProtocolError(
                f"unknown frame type {frame_type!r}", code="type"
            )

    def _merge(self, worker: str, index: int, row: Dict[str, Any]) -> None:
        """One arriving row: book, merge map, checkpoint, progress."""
        with self._lock:
            if self._aborted:
                return  # a crashed coordinator merges nothing more
            assert self._book is not None
            directives = self._book.result(worker, index)
            self._rows[index] = canonical_row(row)
            if self._checkpoint is not None:
                _write_checkpoint(
                    self._checkpoint, self._fingerprint, self._rows
                )
            self.metrics.incr("results")
            self._sync_stats()
            self._dispatch(directives)
            completed = len(self._rows)
            if self._book.done:
                self._done.set()
        if self._on_progress is not None:
            self._on_progress(completed, len(self._points))

    def _dispatch(self, directives: List[Directive]) -> None:
        """Queue the book's directives to the affected connections.

        Only enqueues (called under the lock); the per-connection writer
        threads do the blocking sends.  A peer that died between its
        last frame and this push just never reads the queued frame; its
        own handler thread runs the crash path when the read side sees
        EOF.
        """
        for directive in directives:
            kind, worker = directive[0], directive[1]
            connection = self._connections.get(worker)
            if connection is None:
                continue
            if kind == "grant":
                connection.send(
                    protocol.lease_frame(directive[2], directive[3])
                )
            elif kind == "revoke":
                connection.send(protocol.revoke_frame(directive[2]))
            elif kind == "done":
                connection.send(protocol.done_frame())

    def _depart(self, connection: Optional[_Connection]) -> None:
        """Connection teardown: clean ``bye`` or crash reclamation."""
        if connection is None:
            return
        with self._lock:
            assert self._book is not None
            self._connections.pop(connection.worker, None)
            if connection.worker not in self._book.workers():
                return
            crashed = (
                not connection.said_bye
                and not self._aborted
                and not self._closing
            )
            directives = self._book.crash(connection.worker)
            self._sync_stats()
            if crashed:
                self.metrics.incr("worker_crashes")
                self.metrics.event("worker_crash", worker=connection.worker)
            self._dispatch(directives)

    def _sync_stats(self) -> None:
        """Mirror the book's grant/steal counts into the metrics table."""
        assert self._book is not None
        for name in ("shards", "steals"):
            delta = self._book.stats[name] - self._stats_seen[name]
            if delta:
                self.metrics.incr(name, delta)
                self._stats_seen[name] = self._book.stats[name]
