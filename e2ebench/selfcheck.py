"""Self-check of the end-to-end benchmark itself.

Usage (from the root of a checkout)::

    python3 e2ebench/selfcheck.py

1. Runs every workload at a tiny size, untraced and traced, and asserts
   the result line holds exactly the metrics ``BENCHMARK.json`` names for
   that mode, each with its declared unit, with zero failed operations.
2. Feeds each workload's correctness gates deliberately corrupted output
   (a flipped byte, a flipped digest, a wrong row, a wrong answer) and
   asserts every gate fires, so the gates are proven live.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   the benchmark's files, and asserts it exits non-zero without a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import harness

HERE = harness.ROOT / "e2ebench"
#: A tenth of a second of work: the smallest lists the workloads make.
TINY_SECONDS = "0.1"

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_benchmark(workload: str, trace: int, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True,
        timeout=180,
    )


def check_emitted(spec: dict) -> None:
    for workload in ("serve-mix", "stream-ingest", "offline-sweep"):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run_benchmark(workload, trace)
            if proc.returncode != 0:
                expect(False, f"{label} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            declared = {m["name"]: m["unit"]
                        for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{label}: every named metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()),
                   f"{label}: every value is a finite number")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: end-to-end metrics are non-zero")


def gate_fires(verify, *args) -> int:
    outcome = harness.Outcome()
    verify(outcome, *args)
    return outcome.failed


def check_serve_gates() -> None:
    import serve_mix

    requests = serve_mix.make_requests(3, 40)
    expected = serve_mix.expected_bodies(requests)
    good = [serve_mix.Reply(200, None, expected[r], 0.0, 0.001) for r in requests]
    expect(gate_fires(serve_mix.verify, requests, good, expected) == 0,
           "serve-mix: gates pass on correct replies")

    def corrupt(index, reply):
        replies = copy.copy(good)
        replies[index] = reply
        return gate_fires(serve_mix.verify, requests, replies, expected)

    repeats = [i for i in range(len(requests)) if requests[i] in requests[:i]]
    lone = next(i for i in range(len(requests))
                if requests.count(requests[i]) == 1)
    body = bytearray(expected[requests[lone]])
    body[-2] ^= 1
    expect(corrupt(lone, serve_mix.Reply(200, "miss", bytes(body), 0.0, 0.001)) == 1,
           "serve-mix: a flipped byte in a computed body fails that request")
    expect(corrupt(repeats[0], serve_mix.Reply(200, "hit", b'{"stale":true}',
                                               0.0, 0.001)) == 1,
           "serve-mix: a cache hit differing from the first answer fails")
    expect(corrupt(0, serve_mix.Reply(500, None, b"{}", 0.0, 0.001)) >= 1,
           "serve-mix: a 500 fails that request")

    # The traced run checks the same requests in three passes.
    replies = copy.copy(good)
    replies[lone] = serve_mix.Reply(200, "miss", bytes(body), 0.0, 0.001)
    outcome = harness.Outcome()
    for _ in range(3):
        serve_mix.verify(outcome, requests, replies, expected)
    expect(outcome.failed == 1,
           "serve-mix: a request failing in three passes counts once")


def check_stream_gates() -> None:
    import stream_ingest
    from repro.streaming.protocol import event_frame

    session = stream_ingest.Session(5, burst=6, paced=4)

    def honest():
        observed = stream_ingest.Pass()
        observed.summary = {"type": "end", "event_digest": session.digest,
                            "total_reports": session.total_reports}
        observed.frames = [event_frame("s", i + 1, e.to_dict())
                           for i, e in enumerate(session.events)]
        return observed

    expect(gate_fires(stream_ingest.verify, session, honest()) == 0,
           "stream-ingest: gates pass on the offline events")

    observed = honest()
    digest = observed.summary["event_digest"]
    observed.summary["event_digest"] = ("1" if digest[0] == "0" else "0") + digest[1:]
    expect(gate_fires(stream_ingest.verify, session, observed) == session.total_reports,
           "stream-ingest: a flipped server digest fails every report")

    observed = honest()
    observed.frames[3] = dict(observed.frames[3],
                              windowed_reports=observed.frames[3]["windowed_reports"] + 1)
    expect(gate_fires(stream_ingest.verify, session, observed)
           == stream_ingest.REPORTS_PER_PERIOD,
           "stream-ingest: one altered fanned-out event fails its period")

    observed = honest()
    observed.frames.pop()
    expect(gate_fires(stream_ingest.verify, session, observed)
           == stream_ingest.REPORTS_PER_PERIOD,
           "stream-ingest: a lost fanned-out event fails its period")

    observed = honest()
    observed.summary, observed.error = None, "digest mismatch"
    expect(gate_fires(stream_ingest.verify, session, observed) == session.total_reports,
           "stream-ingest: a rejected session fails every report")


def check_sweep_gates() -> None:
    import offline_sweep

    jobs = offline_sweep.make_jobs(11, 1)
    offline_sweep.run_jobs(jobs)
    serial = {i: offline_sweep.serial_digest(job) for i, job in enumerate(jobs)
              if job.kind == "per-point"}
    expect(gate_fires(offline_sweep.verify, jobs, serial) == 0,
           "offline-sweep: gates pass on the library's answers")

    def corrupted(kind, mutate):
        index = next(i for i, job in enumerate(jobs) if job.kind == kind)
        saved = jobs[index].result
        jobs[index].result = jobs[index].keep(mutate(jobs[index].call()))
        try:
            return gate_fires(offline_sweep.verify, jobs, serial)
        finally:
            jobs[index].result = saved

    def nudge_probability(rows, at):
        rows[at]["detection_probability"] = math.nextafter(
            rows[at]["detection_probability"], 2.0)
        return rows

    expect(corrupted("per-point", lambda rows: nudge_probability(rows, 7)) == 1,
           "offline-sweep: a workers=2 row one ulp off the serial row fails")
    expect(corrupted("batched", lambda rows: nudge_probability(
        rows, 135 * len(offline_sweep.BATCHED_K_AXIS) + 4)) == 1,
           "offline-sweep: a batched cell off the per-point cell fails")

    def swap(rows):
        rows[0]["detections"], rows[-1]["detections"] = (
            rows[-1]["detections"], rows[0]["detections"])
        return rows

    expect(corrupted("fused", swap) == 1,
           "offline-sweep: fused rows not monotone in N fail")
    expect(corrupted("minimum", lambda n: n + 1) == 1,
           "offline-sweep: an adaptive minimum off the dense answer fails")

    def lower_threshold(rows):
        rows[1]["threshold"] -= 1
        return rows

    expect(corrupted("frontier", lower_threshold) == 1,
           "offline-sweep: an adaptive frontier off the dense one fails")


def check_bare_directory() -> None:
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_benchmark("serve-mix", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"without a source tree: exit {proc.returncode}, no result line")


def main() -> int:
    if not harness.source_tree_present():
        print(f"error: no source tree at {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_emitted(spec)
    check_serve_gates()
    check_stream_gates()
    check_sweep_gates()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
