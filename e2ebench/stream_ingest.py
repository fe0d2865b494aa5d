"""``stream-ingest``: a framed report stream through ``repro serve``.

One publisher connection streams a seeded ONR session (16 reports per
period) to ``repro serve --stream-port 0`` while one ``/subscribe``
consumer receives the fanned-out detection events.  The session has two
phases: a burst, sent as fast as the socket takes it, for
``throughput_per_s``; then an open-loop phase paced at a fixed rate well
below capacity, each event timed from when its frame was *due*, for
``p50_ms``.  The publisher pins the offline ``SlidingWindowDetector``
digest in the end frame; the server's summary and the fanned-out events
are checked against it.  The analytical engine does no work here.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import harness

REPORTS_PER_PERIOD = 16
#: Burst periods per second of ``--seconds``.  Pipeline capacity is
#: roughly 4k periods/s on a 2-core host, so the burst fills most of the
#: run: its rate swings with host regimes lasting seconds, and a long
#: burst averages over more of them.
BURST_PERIODS_PER_SECOND = 3_600
#: Paced phase: periods per second of ``--seconds`` and the send rate
#: (~1/4 of capacity), giving ~1/5 of the run.
PACED_PERIODS_PER_SECOND = 200
PACED_RATE_HZ = 1_000.0
READ_CHUNK = 1 << 16

_EVENT_FIELDS = ("period", "fired", "new_detection", "windowed_reports",
                 "distinct_nodes", "new_reports")


class Session:
    """The seeded stream, its wire bytes and its offline reference."""

    def __init__(self, seed: int, burst: int, paced: int):
        from repro import onr_scenario
        from repro.detection.reports import DetectionReport
        from repro.geometry.shapes import Point
        from repro.streaming import protocol
        from repro.streaming.detector import SlidingWindowDetector

        self.scenario = onr_scenario()
        self.burst = burst
        self.paced = paced
        self.periods = burst + paced
        self.total_reports = self.periods * REPORTS_PER_PERIOD
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, self.scenario.num_sensors,
                             size=(self.periods, REPORTS_PER_PERIOD))
        positions = rng.uniform(
            (0.0, 0.0), (self.scenario.field.width, self.scenario.field.height),
            size=(self.periods, REPORTS_PER_PERIOD, 2),
        )
        detector = SlidingWindowDetector(self.scenario.window,
                                         self.scenario.threshold)
        self.hello = protocol.encode_frame(
            protocol.hello_frame(self.scenario, seed=seed, periods=self.periods)
        )
        self.frames: List[bytes] = []
        for index, (node_row, position_row) in enumerate(
            zip(nodes.tolist(), positions.tolist())
        ):
            period = index + 1
            reports = [
                DetectionReport(node, period, Point(x, y))
                for node, (x, y) in zip(node_row, position_row)
            ]
            detector.observe(period, reports)
            self.frames.append(protocol.encode_frame(
                protocol.reports_frame(period, period, reports)
            ))
        self.events = detector.events
        self.digest = detector.digest()
        self.end = protocol.encode_frame(protocol.end_frame(
            self.periods + 1, periods=self.periods,
            total_reports=self.total_reports, event_digest=self.digest,
        ))
        #: The burst in consecutive segments: ``(last period, bytes)``.
        self.burst_parts: List[Tuple[int, bytes]] = []
        last = 0
        for part in harness.segments(self.frames[:burst]):
            last += len(part)
            self.burst_parts.append((last, b"".join(part)))
        self.burst_bytes = b"".join(data for _, data in self.burst_parts)

    @property
    def wire(self) -> bytes:
        """Every byte the publisher sends, in order."""
        return self.hello + b"".join(self.frames) + self.end


class Pass:
    """What one publish of the session observed."""

    def __init__(self) -> None:
        self.received: Dict[int, float] = {}
        self.frames: List[dict] = []
        self.summary: Optional[dict] = None
        self.error: Optional[str] = None
        self.burst_seconds = 0.0
        self.due: List[float] = []
        self.sent: List[float] = []

    def paced_latencies(self, session: Session) -> List[float]:
        return [self.received.get(session.burst + 1 + i, float("inf")) - due
                for i, due in enumerate(self.due)]

    def generator_lag(self) -> List[float]:
        return [sent - due for sent, due in zip(self.sent, self.due)]


class Consumer:
    """A ``/subscribe`` client that times each frame as its bytes arrive.

    During the run it only splits lines and stamps them with the time of
    the read that completed them; JSON decoding waits until the session
    is over, so the consumer's own CPU use stays small next to the
    pipeline it measures.  It stops after ``expected`` frames (the hello,
    one event per period, the end summary) or when the server closes.
    """

    def __init__(self, server: harness.ServerProcess, expected: int):
        self.expected = expected
        self.lines: List[bytes] = []
        self.arrived: List[float] = []
        #: Guards ``lines``; notified once ``target`` frames have arrived.
        self.progress = threading.Condition()
        self.target = expected
        self.finished = False
        self.error: Optional[BaseException] = None
        self.sock = socket.create_connection(
            (server.host, server.port), timeout=harness.CHILD_TIMEOUT_S
        )
        self.sock.sendall(
            f"GET /subscribe HTTP/1.1\r\nHost: {server.host}\r\n\r\n".encode("ascii")
        )
        self.thread = threading.Thread(target=self._run)
        self.thread.start()

    def _run(self) -> None:
        buffer, head = b"", True
        try:
            while len(self.lines) < self.expected:
                chunk = self.sock.recv(READ_CHUNK)
                now = time.perf_counter()
                if not chunk:
                    return
                buffer += chunk
                if head:
                    end = buffer.find(b"\r\n\r\n")
                    if end < 0:
                        continue
                    status = buffer[:end].split(b"\r\n", 1)[0].split()
                    if len(status) < 2 or status[1] != b"200":
                        raise RuntimeError(f"/subscribe answered {buffer[:end]!r}")
                    buffer, head = buffer[end + 4:], False
                *complete, buffer = buffer.split(b"\n")
                with self.progress:
                    for line in complete:
                        if line.strip():
                            self.lines.append(line)
                            self.arrived.append(now)
                    if len(self.lines) >= self.target:
                        self.progress.notify_all()
        except BaseException as exc:  # reported by close()
            self.error = exc
        finally:
            with self.progress:
                self.finished = True
                self.progress.notify_all()

    def wait_frames(self, count: int) -> bool:
        """Block until ``count`` frames have arrived; False if they never do."""
        with self.progress:
            self.target = count
            self.progress.wait_for(
                lambda: len(self.lines) >= count or self.finished,
                harness.CHILD_TIMEOUT_S,
            )
            return len(self.lines) >= count

    def close(self, result: "Pass") -> None:
        """Stop, then decode every frame into ``result``."""
        self.thread.join(harness.CHILD_TIMEOUT_S if result.error is None else 1.0)
        if self.thread.is_alive():  # the session failed: unblock the read
            self.sock.shutdown(socket.SHUT_RDWR)
            self.thread.join(harness.CHILD_TIMEOUT_S)
        self.sock.close()
        if self.thread.is_alive():
            raise RuntimeError("the /subscribe consumer did not finish")
        if self.error is not None:
            raise self.error
        for line, arrived in zip(self.lines, self.arrived):
            frame = json.loads(line)
            if frame.get("type") == "event":
                result.received[frame["period"]] = arrived
            result.frames.append(frame)


def _wait_subscribed(server: harness.ServerProcess) -> None:
    deadline = time.perf_counter() + harness.CHILD_TIMEOUT_S
    while server.metrics()["stream"]["subscribers_active"] < 1:
        if time.perf_counter() > deadline:
            raise RuntimeError("the /subscribe consumer never registered")
        time.sleep(0.01)


def publish(
    server: harness.ServerProcess,
    session: Session,
    between: Optional[Callable[[], None]] = None,
) -> Pass:
    """Burst, then paced, with one consumer recording arrival times.

    The burst goes out in segments, each timed from its first byte to its
    last event at the consumer; ``between`` runs after each segment but
    the last, outside the timed burst.
    """
    from repro.streaming.protocol import FrameDecoder

    result = Pass()
    consumer = Consumer(server, expected=session.periods + 2)
    try:
        _wait_subscribed(server)
        with socket.create_connection(
            (server.host, server.stream_port), timeout=harness.CHILD_TIMEOUT_S
        ) as publisher:
            publisher.sendall(session.hello)
            for number, (last, data) in enumerate(session.burst_parts, start=1):
                start = time.perf_counter()
                publisher.sendall(data)
                # Frame 0 is the hello; frame p is period p's event.
                if not consumer.wait_frames(last + 1):
                    raise RuntimeError("burst events never all arrived")
                result.burst_seconds += consumer.arrived[last] - start
                if between is not None and number < len(session.burst_parts):
                    between()
            base = time.perf_counter() + 0.01
            for i, frame in enumerate(session.frames[session.burst:]):
                due = base + i / PACED_RATE_HZ
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                result.due.append(due)
                result.sent.append(time.perf_counter())
                publisher.sendall(frame)
            publisher.sendall(session.end)
            decoder = FrameDecoder()
            while result.summary is None and result.error is None:
                chunk = publisher.recv(READ_CHUNK)
                if not chunk:
                    result.error = "server closed the publisher without a summary"
                for frame in decoder.feed(chunk):
                    if frame.get("type") == "error":
                        result.error = frame.get("error")
                    elif frame.get("type") == "end":
                        result.summary = frame
    finally:
        consumer.close(result)
    return result


def verify(outcome: harness.Outcome, session: Session, observed: Pass) -> None:
    """Offline, server-summary and fanned-out digests are all equal.

    The fanned-out events must equal the offline detector's events one
    for one, which makes their digest the pinned one.  A period whose
    fanned-out event is missing or differs fails its reports; a rejected
    session or a mismatched summary fails them all.
    """
    from repro.streaming.detector import DetectionEvent

    whole = range(session.total_reports)
    if not outcome.check(observed.error is None and observed.summary is not None,
                         f"server rejected the session: {observed.error}", whole):
        return
    summary = observed.summary
    outcome.check(summary.get("event_digest") == session.digest,
                  "server summary digest differs from the offline digest", whole)
    outcome.check(summary.get("total_reports") == session.total_reports,
                  "server summary report count differs", whole)
    fanned = [DetectionEvent(**{k: f[k] for k in _EVENT_FIELDS})
              for f in observed.frames if f.get("type") == "event"]
    if fanned != session.events:
        by_period = {event.period: event for event in fanned}
        wrong = [event.period for event in session.events
                 if by_period.get(event.period) != event]
        reports = [(period - 1) * REPORTS_PER_PERIOD + slot
                   for period in wrong for slot in range(REPORTS_PER_PERIOD)]
        outcome.check(False, f"fanned-out events differ from the offline "
                      f"events ({len(wrong)} periods differ)", reports or whole)


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    outcome = harness.Outcome()
    session = Session(
        seed,
        burst=max(4, int(round(seconds * BURST_PERIODS_PER_SECOND))),
        paced=max(4, int(round(seconds * PACED_PERIODS_PER_SECOND))),
    )
    outcome.attempted = session.total_reports

    setups: List[float] = []
    with harness.ServerProcess(stream=True) as server:
        setups.append(server.start())
        with harness.PeakRss(server.proc.pid) as rss:
            observed = publish(
                server, session,
                between=None if trace else
                lambda: setups.append(harness.server_cold_start(stream=True)),
            )
    outcome.processes = rss.max_processes
    outcome.threads = rss.max_threads
    verify(outcome, session, observed)
    latencies = observed.paced_latencies(session)
    lag = observed.generator_lag()

    if trace:
        traced, counters = _traced_pass(session)
        verify(outcome, session, traced)
        _layers(outcome, session, observed, counters,
                traced.burst_seconds / observed.burst_seconds)
        outcome.metric("tail.p99_ms", harness.percentile(latencies, 99) * 1e3, "ms")
        outcome.metric("bench.generator_lag_ms", harness.median(lag) * 1e3, "ms")
        return outcome

    outcome.notes.append(
        f"burst {session.burst} periods ({session.burst * REPORTS_PER_PERIOD} "
        f"reports) in {observed.burst_seconds:.3f} s; paced {session.paced} "
        f"periods at {PACED_RATE_HZ:.0f}/s: p50 over {len(latencies)} events, "
        f"p99 {harness.percentile(latencies, 99) * 1e3:.2f} ms, generator lag "
        f"p50 {harness.median(lag) * 1e3:.3f} ms max {max(lag) * 1e3:.2f} ms; "
        f"setup_s median of {len(setups)} cold starts"
    )
    outcome.metric("setup_s", harness.median(setups), "s")
    outcome.metric("peak_rss_mb", rss.peak_mb, "MB")
    outcome.metric("throughput_per_s",
                   session.burst * REPORTS_PER_PERIOD / observed.burst_seconds, "1/s")
    outcome.metric("p50_ms", harness.median(latencies) * 1e3, "ms")
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _traced_pass(session: Session) -> Tuple[Pass, Dict]:
    harness.OUT.mkdir(parents=True, exist_ok=True)
    trace_file = harness.OUT / "stream-ingest.trace.jsonl"
    with harness.ServerProcess(stream=True, trace=trace_file) as server:
        server.start()
        observed = publish(server, session)
    return observed, harness.read_manifest(trace_file)["counters"]


def _replay(session: Session, tracer: harness.Tracer) -> None:
    """The server's per-frame layers, called in-process on the same bytes."""
    from repro.streaming import protocol
    from repro.streaming.detector import SlidingWindowDetector
    from repro.streaming.hub import StreamHub

    wire = session.hello + session.burst_bytes
    decoder = protocol.FrameDecoder()
    frames = []
    for offset in range(0, len(wire), READ_CHUNK):
        with tracer.span("protocol.decode"):
            frames.extend(decoder.feed(wire[offset:offset + READ_CHUNK]))

    validator = protocol.SessionValidator()
    validator.validate(frames[0])
    detector = SlidingWindowDetector(session.scenario.window,
                                     session.scenario.threshold)
    hub = StreamHub(subscriber_queue=len(frames))
    hub.subscribe()
    for seq, frame in enumerate(frames[1:], start=1):
        with tracer.span("protocol.validate"):
            validator.validate(frame)
            reports = protocol.reports_from_wire(frame["reports"], frame["period"])
        with tracer.span("detector.update"):
            event = detector.observe(frame["period"], reports)
        with tracer.span("hub.fanout"):
            hub.broadcast(protocol.event_frame("replay", seq, event.to_dict()))
    hub.close()


def _layers(outcome, session, observed, counters, overhead) -> None:
    tracer = harness.Tracer()
    _replay(session, tracer)
    totals = tracer.self_times()
    reports = session.burst * REPORTS_PER_PERIOD
    rows = [(name, calls, seconds) for name, (calls, seconds) in totals.items()]
    remainder = harness.print_layer_table(
        f"stream-ingest burst ({reports} reports)", rows, observed.burst_seconds
    )
    print("obs counters (server manifest): " + json.dumps(
        {k: v for k, v in sorted(counters.items()) if k.startswith("stream.")}))

    def per_report(name):
        return totals[name][1] / reports * 1e6

    outcome.metric("protocol.decode_us", per_report("protocol.decode"), "us")
    outcome.metric("protocol.validate_us", per_report("protocol.validate"), "us")
    outcome.metric("detector.update_us", per_report("detector.update"), "us")
    outcome.metric("protocol.wire_bytes_per_report",
                   len(session.wire) / session.total_reports, "bytes")
    calls, seconds = totals["hub.fanout"]
    outcome.metric("hub.fanout_us", seconds / calls * 1e6, "us")
    outcome.metric("stream.unattributed_share", remainder, "ratio")
    outcome.metric("obs.tracing_overhead", overhead, "ratio")
