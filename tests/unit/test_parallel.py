"""Unit tests for repro.parallel: sharding, seeding, merging, determinism,
and the process-wide worker pool's lifetime."""

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import analysis_cache, clear_analysis_cache, obs, parallel
from repro.errors import SimulationError
from repro.experiments.sweeps import grid_sweep
from repro.parallel import (
    available_workers,
    merge_simulation_results,
    parallel_map,
    run_simulator_parallel,
    spawn_seed_sequences,
    split_trials,
)
from repro.simulation.fused import FusedMonteCarloEngine
from repro.simulation.runner import MonteCarloSimulator, SimulationResult


def fingerprint(result: SimulationResult) -> str:
    """Bitwise digest of every per-trial array a run produces."""
    digest = hashlib.sha256()
    for array in (
        result.report_counts,
        result.node_counts,
        result.false_report_counts,
        result.detection_periods,
    ):
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestSplitTrials:
    def test_even_split(self):
        assert split_trials(100, 4) == [25, 25, 25, 25]

    def test_remainder_goes_to_first_shards(self):
        assert split_trials(10, 3) == [4, 3, 3]

    def test_sums_to_trials(self):
        for trials in (1, 7, 100, 1001):
            for workers in (1, 2, 3, 8):
                shards = split_trials(trials, workers)
                assert sum(shards) == trials
                assert all(s >= 1 for s in shards)

    def test_workers_clamped_to_trials(self):
        assert split_trials(3, 8) == [1, 1, 1]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            split_trials(0, 2)
        with pytest.raises(SimulationError):
            split_trials(10, 0)
        with pytest.raises(SimulationError):
            split_trials(10, 2.5)


class TestSpawnSeedSequences:
    def test_deterministic_per_seed_and_workers(self):
        a = spawn_seed_sequences(42, 4)
        b = spawn_seed_sequences(42, 4)
        assert [s.generate_state(4).tolist() for s in a] == [
            s.generate_state(4).tolist() for s in b
        ]

    def test_streams_differ_across_workers(self):
        states = {
            tuple(s.generate_state(4).tolist())
            for s in spawn_seed_sequences(42, 4)
        }
        assert len(states) == 4

    def test_prefix_stability_not_required(self):
        # Different worker counts are *allowed* to produce different
        # streams — only (seed, workers) as a pair is pinned.
        two = spawn_seed_sequences(7, 2)
        assert len(two) == 2


class TestMergeSimulationResults:
    def test_concatenates_in_shard_order(self, small):
        a = SimulationResult(
            scenario=small,
            report_counts=np.array([1, 2]),
            node_counts=np.array([1, 2]),
        )
        b = SimulationResult(
            scenario=small,
            report_counts=np.array([3]),
            node_counts=np.array([3]),
        )
        merged = merge_simulation_results([a, b])
        np.testing.assert_array_equal(merged.report_counts, [1, 2, 3])
        assert merged.trials == 3

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            merge_simulation_results([])

    def test_single_shard_is_identity(self, small):
        result = MonteCarloSimulator(small, trials=40, seed=2).run()
        merged = merge_simulation_results([result])
        assert merged.trials == result.trials
        assert fingerprint(merged) == fingerprint(result)

    def test_rejects_scenario_mismatch(self, small, tiny):
        a = SimulationResult(
            scenario=small,
            report_counts=np.array([1]),
            node_counts=np.array([1]),
        )
        b = SimulationResult(
            scenario=tiny,
            report_counts=np.array([1]),
            node_counts=np.array([1]),
        )
        with pytest.raises(SimulationError):
            merge_simulation_results([a, b])

    def test_rejects_tracking_mismatch(self, small):
        a = SimulationResult(
            scenario=small,
            report_counts=np.array([1]),
            node_counts=np.array([1]),
            detection_periods=np.array([2.0]),
        )
        b = SimulationResult(
            scenario=small,
            report_counts=np.array([1]),
            node_counts=np.array([1]),
        )
        with pytest.raises(SimulationError):
            merge_simulation_results([a, b])


class TestParallelRun:
    def test_same_seed_same_workers_identical(self, small):
        a = MonteCarloSimulator(small, trials=120, seed=9).run(workers=3)
        b = MonteCarloSimulator(small, trials=120, seed=9, workers=3).run()
        assert fingerprint(a) == fingerprint(b)
        assert a.trials == 120

    def test_workers_1_matches_legacy_serial(self, small):
        serial = MonteCarloSimulator(small, trials=200, seed=11).run()
        explicit = MonteCarloSimulator(small, trials=200, seed=11).run(workers=1)
        assert fingerprint(serial) == fingerprint(explicit)

    def test_workers_1_matches_seed_repo_fingerprint(self):
        # Golden values captured from the pre-parallel serial implementation:
        # any drift here means the refactor changed the trial stream.
        from repro.experiments.presets import small_scenario

        result = MonteCarloSimulator(small_scenario(), trials=500, seed=123).run()
        assert list(result.report_counts[:10]) == [0, 4, 0, 1, 3, 4, 3, 0, 0, 3]
        assert result.detections == 154
        assert (
            fingerprint(result)
            == "8556e11ded8b057a444091c8e3f719a09474659083c4fb32dd8a92f5e4bf6678"
        )

    def test_parallel_estimate_within_serial_confidence_interval(self, small):
        serial = MonteCarloSimulator(small, trials=2_000, seed=3).run()
        parallel = MonteCarloSimulator(small, trials=2_000, seed=3).run(workers=2)
        low, high = serial.confidence_interval(confidence=0.999)
        assert low <= parallel.detection_probability <= high

    def test_progress_reported_from_parent(self, small):
        calls = []
        simulator = MonteCarloSimulator(
            small,
            trials=60,
            seed=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        run_simulator_parallel(simulator, workers=2)
        assert calls[-1] == (60, 60)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)

    def test_unpicklable_deployment_raises_helpful_error(self, small):
        simulator = MonteCarloSimulator(
            small,
            trials=4,
            seed=1,
            deployment=lambda field, count, rng: rng.uniform(
                (0.0, 0.0), (field.width, field.height), size=(count, 2)
            ),
        )
        with pytest.raises(SimulationError, match="picklable"):
            simulator.run(workers=2)

    def test_invalid_workers_rejected(self, small):
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, trials=10, workers=0)
        with pytest.raises(SimulationError):
            MonteCarloSimulator(small, trials=10).run(workers=-1)

    def test_workers_beyond_trials_collapse(self, small):
        result = MonteCarloSimulator(small, trials=3, seed=5).run(workers=16)
        assert result.trials == 3


def _square(value):
    return {"value": value, "square": value * value}


def _affine(a, b):
    return {"sum": a + b}


class TestParallelMap:
    def test_ordered_results(self):
        assert parallel_map(_square, [3, 1, 2], workers=2) == [
            {"value": 3, "square": 9},
            {"value": 1, "square": 1},
            {"value": 2, "square": 4},
        ]

    def test_kwargs_items(self):
        rows = parallel_map(
            _affine,
            [{"a": 1, "b": 2}, {"a": 3, "b": 4}],
            workers=2,
            kwargs_items=True,
        )
        assert rows == [{"sum": 3}, {"sum": 7}]

    def test_serial_path_allows_lambdas(self):
        assert parallel_map(lambda v: v + 1, [1, 2], workers=1) == [2, 3]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []


def test_available_workers_positive():
    assert available_workers() >= 1


def _pid(_item):
    return os.getpid()


def _pid_row(a):
    return {"a": a, "pid": os.getpid()}


def _square_row_crashing_once(a, crash_file):
    """Kills its worker the first time it sees ``a == 2``."""
    if a == 2 and not os.path.exists(crash_file):
        with open(crash_file, "w"):
            pass
        os._exit(1)
    return {"a": a, "square": a * a}


def _alive(pid):
    """True while ``pid`` runs (a zombie has exited and counts as dead)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _pool_pids(workers=2):
    """Pids of the pool workers that ran a small map (some may idle)."""
    return set(parallel_map(_pid, range(4 * workers), workers=workers))


def _cache_probe(item):
    """(worker pid, analysis-cache entries before this task adds one)."""
    entries = analysis_cache().stats()["entries"]
    analysis_cache().get_or_compute(("pool-probe", item), lambda: item)
    return os.getpid(), entries


def _run_script(script):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process states from /proc"
)
class TestSharedPool:
    """One worker pool per process: reused by every pooled call, rebuilt
    after a crash or a timeout, never inherited by a forked child, and
    joined when the interpreter exits."""

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        parallel._discard_pool()
        yield
        parallel._discard_pool()

    def test_calls_reuse_one_pool(self, small):
        with obs.instrument() as ob:
            first = _pool_pids()
            second = _pool_pids()
            rows = grid_sweep({"a": list(range(6))}, _pid_row, workers=2)
            FusedMonteCarloEngine(
                small, num_sensors=[10, 40], trials=200, seed=3
            ).run(workers=2)
            MonteCarloSimulator(small, trials=100, seed=3).run(workers=2)
            third = _pool_pids()
        pids = first | second | {row["pid"] for row in rows} | third
        assert os.getpid() not in pids
        assert len(pids) <= 2  # one pool of two workers served every call
        assert ob.counters["parallel.pool_starts"] == 1
        starts = [e for e in ob.events if e["name"] == "parallel.pool_start"]
        assert [e["size"] for e in starts] == [2]

    def test_different_size_starts_a_new_pool(self):
        with obs.instrument() as ob:
            two = _pool_pids(2)
            three = _pool_pids(3)
        assert not two & three
        assert ob.counters["parallel.pool_starts"] == 2

    def test_crash_rebuilds_the_pool_and_rows_stay_exact(self, tmp_path):
        before = _pool_pids()
        crash_file = str(tmp_path / "crashed")
        compute = functools.partial(
            _square_row_crashing_once, crash_file=crash_file
        )
        grids = {"a": list(range(9))}
        with obs.instrument() as ob:
            crashed = grid_sweep(grids, compute, workers=2)
        assert os.path.exists(crash_file)  # the crash really happened
        assert ob.counters["parallel.pool_crashes"] == 1
        assert ob.counters["parallel.pool_starts"] == 1  # the rebuild
        clean = grid_sweep(grids, compute, workers=1)
        assert json.dumps(crashed) == json.dumps(clean)
        after = _pool_pids()
        assert after and not after & before

    def test_timeout_abandon_starts_a_fresh_pool(self):
        before = _pool_pids()
        with pytest.raises(SimulationError, match="timeout"):
            parallel_map(
                time.sleep, [30.0, 30.0], workers=2, timeout=0.3, max_retries=0
            )
        after = _pool_pids()
        assert after and not after & before

    def test_forked_child_runs_its_own_pool(self):
        parent_pids = _pool_pids()  # the child inherits a live pool
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            status = 1
            try:
                os.close(read_fd)
                pids = sorted(_pool_pids())
                os.write(write_fd, json.dumps(pids).encode())
                parallel._discard_pool()
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(child, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                os.close(read_fd)
                pytest.fail("a forked child hung in its pooled call")
            time.sleep(0.05)
        with os.fdopen(read_fd) as reader:
            child_pids = set(json.loads(reader.read() or "[]"))
        assert os.waitstatus_to_exitcode(status) == 0
        assert child_pids and not child_pids & parent_pids
        # The parent's pool is intact: still the same two workers.
        assert len(parent_pids | _pool_pids()) <= 2

    def test_no_worker_outlives_the_interpreter(self):
        pids = _run_script(
            """
            import json, os
            from repro.experiments.sweeps import grid_sweep

            def row(a):
                return {"a": a, "pid": os.getpid()}

            rows = grid_sweep({"a": list(range(8))}, row, workers=2)
            print(json.dumps(sorted({r["pid"] for r in rows})))
            """
        )
        assert pids
        assert [pid for pid in pids if _alive(pid)] == []

    def test_main_compute_runs_its_current_body(self):
        # The pool starts on library code; `row` is defined after it and
        # then redefined, so kept workers would lack it or hold its old
        # body.  Tasks naming __main__ get freshly forked workers.
        calls = _run_script(
            """
            import json
            from repro import obs
            from repro.experiments.sweeps import grid_sweep

            grids = {"a": [1, 2, 3, 4]}
            with obs.instrument() as ob:
                rows = [grid_sweep(grids, dict, workers=2)]

                def row(a):
                    return {"a": a, "v": a}

                rows.append(grid_sweep(grids, row, workers=2))

                def row(a):
                    return {"a": a, "v": -a}

                rows.append(grid_sweep(grids, row, workers=2))
                rows.append(grid_sweep(grids, dict, workers=2))
            rows.append(ob.counters["parallel.pool_starts"])
            print(json.dumps(rows))
            """
        )
        plain, first, redefined, again, starts = calls
        assert plain == again == [{"a": a} for a in (1, 2, 3, 4)]
        assert first == [{"a": a, "v": a} for a in (1, 2, 3, 4)]
        assert redefined == [{"a": a, "v": -a} for a in (1, 2, 3, 4)]
        assert starts == 3  # library calls reuse the last fresh pool

    def test_clear_analysis_cache_reaches_kept_workers(self):
        parallel_map(_cache_probe, range(8), workers=2)  # warm both
        clear_analysis_cache()
        seen = parallel_map(_cache_probe, range(8, 16), workers=2)
        first_on_each_worker = {}
        for pid, entries in seen:  # a worker runs its tasks in input order
            first_on_each_worker.setdefault(pid, entries)
        assert set(first_on_each_worker.values()) == {0}

    def test_pooled_call_from_on_result_raises(self):
        def nested(_index, _result):
            parallel_map(_pid, range(4), workers=2)

        with pytest.raises(SimulationError, match="inside another pooled"):
            parallel_map(_pid, range(4), workers=2, on_result=nested)
        assert _pool_pids()  # the pool is released and still serves

    def test_short_call_keeps_the_pool(self):
        # Sized by `workers`, not the task count: a 3-point call at
        # workers=4 must not re-fork the pool the 8-point calls use.
        with obs.instrument() as ob:
            for items in (8, 3, 8, 2):
                parallel_map(_pid, range(items), workers=4)
        assert ob.counters["parallel.pool_starts"] == 1
