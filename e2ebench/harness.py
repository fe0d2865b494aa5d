"""Shared machinery for the end-to-end benchmark workloads.

Everything here is workload-agnostic: locating the source tree, starting
and stopping ``repro serve`` as a separate process, timing cold starts,
sampling peak resident memory of a process tree, the host-drift
calibration loop, percentiles, and the in-memory span recorder behind
the traced runs.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run-time output (server logs, server-side traces); ignored by git.
OUT = ROOT / ".e2ebench-out"

#: Bound on every wait for a child process (start-up, shutdown, a reply).
CHILD_TIMEOUT_S = 60.0

#: Cold starts per run behind ``setup_s``: one before the timed phase and
#: one between each pair of its segments, so the median samples the host
#: regimes of the whole run rather than one moment of it.
COLD_STARTS = 5


def source_tree_present() -> bool:
    """Whether the checkout holds the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def segments(items: list, count: int = COLD_STARTS) -> List[list]:
    """``items`` split into ``count`` consecutive, near-equal segments."""
    size, extra = divmod(len(items), count)
    out, start = [], 0
    for index in range(count):
        end = start + size + (index < extra)
        out.append(items[start:end])
        start = end
    return [segment for segment in out if segment]


# ----------------------------------------------------------------------
# Host drift
# ----------------------------------------------------------------------


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Timed at the start and end of every run and never gated: it tells a
    slow host regime apart from a slow program.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


# ----------------------------------------------------------------------
# Process trees and peak memory
# ----------------------------------------------------------------------


def _parent_map() -> Dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rfind(b")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    return parents


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    children: Dict[int, List[int]] = {}
    for pid, parent in _parent_map().items():
        children.setdefault(parent, []).append(pid)
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _status_kb(pid: int, key: bytes) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def thread_count(pids) -> int:
    return sum(_status_kb(pid, b"Threads:") for pid in pids)


class PeakRss:
    """Samples the summed ``VmHWM`` of a process tree on a thread.

    ``VmHWM`` is each process's own high-water mark, so the sum over the
    live tree at any instant bounds the memory the system under test held
    together; the maximum of that sum over the run is reported.  Short
    lived pool workers are caught by sampling every ``interval`` seconds.
    """

    def __init__(self, root: int, interval: float = 0.05):
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self.max_processes = 0
        self.max_threads = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        tree = process_tree(self.root)
        total = sum(_status_kb(pid, b"VmHWM:") for pid in tree)
        self.peak_kb = max(self.peak_kb, total)
        self.max_processes = max(self.max_processes, len(tree))
        self.max_threads = max(self.max_threads, thread_count(tree))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=CHILD_TIMEOUT_S)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# ----------------------------------------------------------------------
# The service under test, in its own process
# ----------------------------------------------------------------------


@contextmanager
def _kill_after(proc: subprocess.Popen, seconds: float) -> Iterator[None]:
    """Kill ``proc`` if the block has not finished within ``seconds``.

    A blocking read of a child's stdout then ends at EOF instead of
    hanging the run.
    """
    timer = threading.Timer(seconds, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


class ServerProcess:
    """``repro serve`` started as a child process and driven over loopback.

    ``start()`` returns the seconds from spawning the interpreter until
    ``/readyz`` answers 200 (and, with ``stream=True``, the ingest port
    is announced): the service workloads' cold start.
    """

    def __init__(self, stream: bool = False, trace: Optional[Path] = None):
        self.stream = stream
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self.stream_port: Optional[int] = None
        self._log = None

    def command(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--host", self.host, "--port", "0",
            "--replicas", "1", "--workers", "1",
        ]
        if self.stream:
            argv += ["--stream-port", "0"]
        if self.trace is not None:
            argv += ["--trace", str(self.trace)]
        return argv

    def start(self) -> float:
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / "server.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command(),
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            with _kill_after(self.proc, CHILD_TIMEOUT_S):
                self._read_announcements()
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - start

    def _read_announcements(self) -> None:
        # The bound address is the last token of each announcement line.
        wanted = 2 if self.stream else 1
        for _ in range(wanted):
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    f"repro serve exited before announcing its port "
                    f"(exit code {self.proc.poll()}; see {OUT / 'server.log'})"
                )
            port = int(line.strip().rsplit(":", 1)[1])
            if line.startswith("repro-stream"):
                self.stream_port = port
            else:
                self.port = port

    def _wait_ready(self, start: float) -> None:
        while True:
            status, _ = self.get("/readyz")
            if status == 200:
                return
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, Dict[str, str], bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=CHILD_TIMEOUT_S
        )
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            connection.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        status, _, body = self.request("GET", path)
        return status, body

    def metrics(self) -> Dict[str, Any]:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (clean shutdown writes the trace manifest), then wait."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def server_cold_start(stream: bool) -> float:
    """One cold start of a throw-away server: spawn to ready, then stop."""
    with ServerProcess(stream=stream) as server:
        return server.start()


#: What a library user's process imports before its first sweep call.
_LIBRARY_IMPORT = (
    "import repro\n"
    "from repro.experiments.sweeps import analytical_grid_sweep, "
    "simulated_grid_sweep\n"
    "from repro.adaptive import adaptive_minimum_sensors, "
    "adaptive_rule_frontier\n"
    "print('ready', flush=True)\n"
)


def library_cold_start() -> float:
    """Spawn a fresh interpreter until it can issue its first sweep call."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _LIBRARY_IMPORT],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
    )
    try:
        with _kill_after(proc, CHILD_TIMEOUT_S):
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != b"ready":
            raise RuntimeError("library import failed in a fresh interpreter")
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    return elapsed


def read_manifest(trace: Path) -> Dict[str, Any]:
    """The run manifest ``repro <cmd> --trace FILE`` writes on exit."""
    with open(str(trace) + ".manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# In-memory spans for the traced run
# ----------------------------------------------------------------------


@dataclass
class SpanRecord:
    span_id: int
    parent: Optional[int]
    trace: Any
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans recorded from the benchmark's own code, kept in memory.

    A span names the layer whose public function it wraps; spans opened
    inside another become its children, and spans of one operation share
    a ``trace`` identifier.  Self time (a span's duration minus the time
    its direct children cover) attributes each second to one layer.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        self._next = 0
        self.trace: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                SpanRecord(span_id, parent, self.trace, name, start, end)
            )

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        return traced

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, total self seconds)}``."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.duration
                )
        totals: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, seconds = totals.get(span.name, (0, 0.0))
            totals[span.name] = (
                calls + 1,
                seconds + span.duration - child_time.get(span.span_id, 0.0),
            )
        return totals

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]


@contextmanager
def patched(module, name: str, replacement) -> Iterator[None]:
    """Temporarily rebind ``module.name`` (to wrap a layer in spans)."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    #: Indexes of the operations a correctness gate failed.  A set, so an
    #: operation checked in several passes counts as failed at most once.
    failed_operations: set = field(default_factory=set)
    #: Most processes and threads the system under test ran at once.
    processes: int = 0
    threads: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def failed(self) -> int:
        return len(self.failed_operations)

    def check(self, ok: bool, what: str, operations: Iterable[int]) -> bool:
        """Apply one correctness gate; on failure ``operations`` (their
        indexes in the run's operation list) count as failed."""
        if not ok:
            self.failed_operations.update(operations)
            self.notes.append(f"correctness gate failed: {what}")
        return ok


def print_layer_table(
    title: str, rows: List[Tuple[str, int, float]], total_seconds: float
) -> float:
    """Print layers with their share of end-to-end time; return the remainder.

    ``rows`` holds ``(layer, calls, seconds)``; the unattributed share is
    what the listed layers leave of ``total_seconds``.
    """
    print(f"== {title}: per-layer breakdown "
          f"(end-to-end {total_seconds:.3f} s) ==")
    print(f"{'layer':<44}{'calls':>9}{'seconds':>11}{'share':>9}")
    attributed = 0.0
    for layer, calls, seconds in rows:
        attributed += seconds
        share = seconds / total_seconds if total_seconds > 0 else 0.0
        print(f"{layer:<44}{calls:>9}{seconds:>11.4f}{share:>9.1%}")
    remainder = 1.0 - attributed / total_seconds if total_seconds > 0 else 0.0
    print(f"{'(unattributed)':<44}{'':>9}"
          f"{total_seconds - attributed:>11.4f}{remainder:>9.1%}")
    return remainder
