"""The sweep worker: lease, compute front-to-back, yield when robbed.

A worker is a plain TCP client loop — no shared state with the
coordinator beyond the wire protocol — so the same function serves an
in-process thread, a forked local process
(:class:`repro.distributed.orchestrator.LocalFleet`), or a process on
another host (``repro sweep --connect host:port``).

Loop shape:

* handshake, then verify the coordinator's point list hashes to the
  fingerprint it claims (:func:`repro.distributed.protocol.validate_welcome`
  with :func:`repro.experiments.sweeps._points_fingerprint` — the same
  digest the checkpoint format uses);
* resolve the compute ``spec`` into a point function
  (:func:`resolve_spec`);
* while owning a lease, compute its indexes **front-to-back**, sending
  one ``result`` per point; *between* points, poll the socket without
  blocking so a ``revoke`` is honoured with at most one point of
  latency;
* on ``revoke(at)``, ack ``revoked(at')`` where ``at'`` is the first
  index this worker truly did not (and will not) compute — ``at`` when
  it has not reached it, the next uncomputed index when it raced ahead
  — then keep computing what remains below ``at'``;
* when idle, ``request`` and block: a ``lease`` may be granted
  immediately, pushed later (after a steal completes), or replaced by
  ``done``.

Rows are passed through :func:`repro.experiments.sweeps.canonical_row`
*before* transmission, so the bytes the coordinator merges are exactly
the bytes the serial sweep path produces.
"""

from __future__ import annotations

import functools
import importlib
import os
import socket
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ProtocolError, SimulationError, StreamError
from repro.experiments.sweeps import (
    _analytical_point,
    _points_fingerprint,
    _simulated_point,
    canonical_row,
)
from repro.distributed import protocol

__all__ = ["default_worker_name", "resolve_spec", "run_worker"]


def default_worker_name() -> str:
    """A name unique enough for ad-hoc ``--connect`` workers."""
    return f"{socket.gethostname()}-{os.getpid()}"


def resolve_spec(spec: Dict[str, Any]) -> Callable[..., Dict[str, Any]]:
    """Turn a wire compute spec into a point function.

    Three kinds:

    * ``{"kind": "analytical", "scenario": {...}, ...}`` — the
      M-S-approach point used by ``analytical_grid_sweep``'s per-point
      path (bitwise equal to the batched grid);
    * ``{"kind": "simulated", "scenario": {...}, "trials": ..., ...}``
      — one Monte Carlo simulator per point, same root seed everywhere
      (the ``fused=False`` serial path);
    * ``{"kind": "callable", "function": "module:attr", "fixed":
      {...}}`` — any importable function, partially applied.

    The first two pass the spec's other fields by keyword to the sweeps
    module's point function, which owns their names and defaults.

    Raises:
        ProtocolError: (code ``spec``) on an unknown kind, a missing or
            non-object ``scenario``, an option the point function does
            not take, or an unresolvable callable.
        ScenarioError: for a scenario object with missing or invalid
            fields.
    """
    kind = spec.get("kind")
    if kind in ("analytical", "simulated"):
        from repro.core.scenario import Scenario

        scenario = spec.get("scenario")
        if not isinstance(scenario, dict):
            raise ProtocolError(
                f"{kind} spec needs a 'scenario' object, got {scenario!r}",
                code="spec",
            )
        point_function = (
            _analytical_point if kind == "analytical" else _simulated_point
        )
        # The rest of the spec is the point function's keyword options.
        options = dict(spec)
        del options["kind"], options["scenario"]
        unknown = sorted(set(options) - set(point_function.__kwdefaults__))
        if unknown:
            raise ProtocolError(
                f"{kind} spec has unknown option(s) {unknown}", code="spec"
            )
        return functools.partial(
            point_function, Scenario.from_dict(scenario), **options
        )
    if kind == "callable":
        target = spec.get("function")
        if not isinstance(target, str) or ":" not in target:
            raise ProtocolError(
                f"callable spec needs 'module:attr', got {target!r}",
                code="spec",
            )
        module_name, _, attr = target.partition(":")
        try:
            function = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ProtocolError(
                f"cannot resolve spec function {target!r}: {exc}",
                code="spec",
            ) from exc
        fixed = spec.get("fixed") or {}
        return functools.partial(function, **fixed) if fixed else function
    raise ProtocolError(f"unknown spec kind {kind!r}", code="spec")


class _Channel:
    """Blocking/polling frame reader over one socket."""

    def __init__(self, sock: socket.socket, max_frame_bytes: int) -> None:
        self._sock = sock
        self._decoder = protocol.FrameDecoder(max_frame_bytes)
        self._pending: List[Dict[str, Any]] = []

    def send(self, frame: Dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode_frame(frame))

    def read(self) -> Dict[str, Any]:
        """Next frame, blocking; EOF raises StreamError."""
        while not self._pending:
            self._sock.settimeout(None)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise StreamError("coordinator closed the connection")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    def poll(self) -> Optional[Dict[str, Any]]:
        """Next frame if one is already available; never blocks."""
        if self._pending:
            return self._pending.pop(0)
        self._sock.settimeout(0.0)
        try:
            chunk = self._sock.recv(65536)
        except (BlockingIOError, socket.timeout):
            return None
        finally:
            self._sock.settimeout(None)
        if not chunk:
            raise StreamError("coordinator closed the connection")
        self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0) if self._pending else None


def run_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    expected_fingerprint: Optional[str] = None,
    max_frame_bytes: int = protocol.MAX_SWEEP_FRAME_BYTES,
    connect_timeout: float = 30.0,
) -> int:
    """Join the coordinator at ``host:port`` and work until ``done``.

    Args:
        host / port: the coordinator's address.
        name: worker name (must be unique per coordinator); defaults to
            :func:`default_worker_name`.
        expected_fingerprint: when set, refuse a coordinator serving a
            different sweep (defence for ad-hoc ``--connect`` joins).
        max_frame_bytes: wire frame cap (the welcome carries the whole
            point list).
        connect_timeout: TCP connect bound.

    Returns:
        The number of points this worker computed.

    Raises:
        StreamError: the coordinator vanished mid-sweep (a coordinator
            crash, from this side).
        ProtocolError: the coordinator broke the session grammar.
    """
    worker = name or default_worker_name()
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = _Channel(sock, max_frame_bytes)
        channel.send(protocol.hello_frame(worker))
        welcome = protocol.validate_welcome(
            channel.read(), _points_fingerprint, expected_fingerprint
        )
        points: List[Dict[str, Any]] = welcome["points"]
        compute = resolve_spec(welcome["spec"])
        owned: List[int] = []
        computed = 0
        # Exactly one request may be outstanding at a time: it is
        # answered by a lease/wait/done, and a new one is sent whenever
        # the lease drains — by computing its last point *or* by a
        # revoke that takes everything (the case a worker must not
        # respond to by going silently idle).
        requested = True
        channel.send(protocol.request_frame())
        while True:
            if owned:
                frame = channel.poll()
            else:
                frame = channel.read()
            if frame is not None:
                frame_type = frame.get("type")
                if frame_type == "lease":
                    start, stop = frame.get("start"), frame.get("stop")
                    if (
                        not isinstance(start, int)
                        or not isinstance(stop, int)
                        or not 0 <= start < stop <= len(points)
                    ):
                        raise ProtocolError(
                            f"bad lease [{start!r}, {stop!r}) for "
                            f"{len(points)} points",
                            code="lease",
                        )
                    if owned:
                        raise ProtocolError(
                            "lease pushed while one is still owned",
                            code="lease",
                        )
                    owned = list(range(start, stop))
                    requested = False
                elif frame_type == "revoke":
                    at = frame.get("at")
                    if not isinstance(at, int):
                        raise ProtocolError(
                            f"'revoke' must carry an integer 'at', got "
                            f"{at!r}",
                            code="revoke",
                        )
                    stopped_at = max(at, owned[0]) if owned else at
                    owned = [index for index in owned if index < stopped_at]
                    channel.send(protocol.revoked_frame(stopped_at))
                    if not owned and not requested:
                        # The revoke took everything: ask for more work
                        # rather than idling with no outstanding request.
                        requested = True
                        channel.send(protocol.request_frame())
                elif frame_type == "wait":
                    pass  # parked: a lease or done will be pushed
                elif frame_type == "done":
                    channel.send(protocol.bye_frame())
                    return computed
                elif frame_type == "error":
                    raise ProtocolError(
                        f"coordinator error: {frame.get('error')!r}",
                        code=str(frame.get("code", "protocol")),
                    )
                else:
                    raise ProtocolError(
                        f"unknown frame type {frame.get('type')!r}",
                        code="type",
                    )
                continue
            # No frame pending and a lease in hand: compute one point.
            index = owned.pop(0)
            row = canonical_row(compute(**points[index]))
            channel.send(protocol.result_frame(index, row))
            computed += 1
            if not owned:
                requested = True
                channel.send(protocol.request_frame())
    finally:
        try:
            sock.close()
        except OSError:
            pass


def worker_main(host: str, port: int, name: str) -> None:
    """Process entry point for :class:`~repro.distributed.orchestrator.LocalFleet`.

    Module-level (hence picklable under the ``spawn`` start method).
    Exits 0 on a clean ``done``; a vanished coordinator exits 3 so the
    fleet can tell a coordinator crash from a worker bug, and a spec
    this worker cannot resolve exits 5.
    """
    try:
        run_worker(host, port, name)
    except ProtocolError as exc:
        raise SystemExit(5 if exc.code == "spec" else 3)
    except (StreamError, OSError):
        raise SystemExit(3)
    except SimulationError:
        raise SystemExit(4)
