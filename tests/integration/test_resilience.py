"""Integration tests for crash-resilient execution and checkpointed sweeps.

The acceptance properties of the robustness work:

* a worker process crashing mid-run is retried deterministically, so the
  merged :class:`SimulationResult` is bitwise identical to an
  uninterrupted run with the same seed;
* a checkpointed grid sweep killed partway and resumed reproduces the
  uninterrupted run's rows exactly;
* an error raised by a task's own code is not a crash: it reaches the
  caller with its own type, pooled or not.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.experiments.figures import fault_injection_experiment
from repro.experiments.sweeps import grid_sweep
from repro.parallel import _execute_resilient, parallel_map
from repro.simulation.runner import MonteCarloSimulator, SimulationResult


def fingerprint(result: SimulationResult) -> str:
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


def _crashing_uniform(field, count, rng, batch, crash_file):
    """Batched uniform deployment that kills its worker exactly once.

    Draws the same stream as the simulator's built-in default deployment,
    so a retried run must match a default-deployment run bitwise.
    """
    if not os.path.exists(crash_file):
        with open(crash_file, "w"):
            pass
        os._exit(1)
    return rng.uniform(
        (0.0, 0.0), (field.width, field.height), size=(batch, count, 2)
    )


def _crash_once(value, crash_file):
    if not os.path.exists(crash_file):
        with open(crash_file, "w"):
            pass
        os._exit(1)
    return {"value": value, "square": value * value}


def _product_crashing_once(a, b, crash_file):
    """A sweep point that kills its pool worker the first time (2, 20) runs."""
    if (a, b) == (2, 20) and not os.path.exists(crash_file):
        with open(crash_file, "w"):
            pass
        os._exit(1)
    return {"a": a, "b": b, "product": a * b / 3}


class TestCrashRecovery:
    def test_crashed_shard_retries_to_identical_result(self, small, tmp_path):
        """Acceptance: forced mid-run worker crash changes nothing."""
        crash_file = str(tmp_path / "crashed")
        uninterrupted = MonteCarloSimulator(small, trials=80, seed=77).run(
            workers=2
        )
        crashing = MonteCarloSimulator(
            small,
            trials=80,
            seed=77,
            deployment=functools.partial(
                _crashing_uniform, crash_file=crash_file
            ),
        ).run(workers=2)
        assert os.path.exists(crash_file)  # the crash really happened
        assert fingerprint(crashing) == fingerprint(uninterrupted)

    def test_parallel_map_retries_crashed_items(self, tmp_path):
        crash_file = str(tmp_path / "crashed")
        rows = parallel_map(
            functools.partial(_crash_once, crash_file=crash_file),
            [1, 2, 3],
            workers=2,
        )
        assert os.path.exists(crash_file)
        assert rows == [
            {"value": 1, "square": 1},
            {"value": 2, "square": 4},
            {"value": 3, "square": 9},
        ]

    def test_crashed_sweep_shard_retries_to_identical_rows(self, tmp_path):
        """A pool worker dying mid-shard re-runs the shard; rows and the
        checkpoint file match an uninterrupted serial run byte for byte."""
        grids = {"a": [1, 2, 3], "b": [10, 20, 30, 40, 50]}
        crash_file = str(tmp_path / "crashed")
        compute = functools.partial(
            _product_crashing_once, crash_file=crash_file
        )
        crashed_path = tmp_path / "crashed.json"
        with obs.instrument() as ob:
            crashed = grid_sweep(
                grids, compute, workers=2, checkpoint=str(crashed_path)
            )
        assert os.path.exists(crash_file)  # the crash really happened
        assert ob.counters["parallel.pool_crashes"] == 1
        clean_path = tmp_path / "clean.json"
        clean = grid_sweep(grids, compute, checkpoint=str(clean_path))
        assert json.dumps(crashed) == json.dumps(clean)
        assert crashed_path.read_bytes() == clean_path.read_bytes()


def _append_s(value):
    """A task whose own code has a bug: ``int + str``."""
    return value + "s"


def _row_of_missing_attribute(a):
    return {"a": a, "b": a.missing}


def _bad_deployment(field, count, rng):
    raise TypeError("deployment bug")


class TestWorkerErrors:
    """An error raised by a task's own code keeps its type at any
    ``workers`` (only a task that cannot be pickled is reported as a
    :class:`SimulationError`; see ``test_parallel.py``)."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_map_keeps_the_type(self, workers):
        with pytest.raises(TypeError, match="unsupported operand"):
            parallel_map(_append_s, [1, 2, 3], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_sweep_keeps_the_type(self, workers):
        with pytest.raises(AttributeError, match="missing"):
            grid_sweep(
                {"a": [1, 2, 3, 4]}, _row_of_missing_attribute, workers=workers
            )

    def test_simulator_shard_keeps_the_type(self, small):
        simulator = MonteCarloSimulator(
            small, trials=40, seed=1, deployment=_bad_deployment
        )
        with pytest.raises(TypeError, match="deployment bug"):
            simulator.run(workers=2)


def _crash_once_task(value, crash_file):
    if not os.path.exists(crash_file):
        with open(crash_file, "w"):
            pass
        os._exit(1)
    return value * value


class TestCrashManifests:
    def test_manifest_records_exact_retry_count(self, tmp_path):
        """Acceptance: one forced crash of the only in-flight task shows
        up in the manifest as exactly one pool crash and one task retry."""
        crash_file = str(tmp_path / "crashed")
        with obs.instrument() as ob:
            results = _execute_resilient(
                functools.partial(_crash_once_task, crash_file=crash_file),
                [(3,)],
                workers=1,
            )
            manifest = ob.manifest()
        assert results == [9]
        assert os.path.exists(crash_file)
        assert manifest["counters"]["parallel.pool_crashes"] == 1
        assert manifest["counters"]["parallel.task_retries"] == 1
        assert manifest["counters"]["parallel.tasks_completed"] == 1
        retry_events = [
            e for e in ob.events if e["name"] == "parallel.task_retry"
        ]
        assert len(retry_events) == 1
        assert retry_events[0]["index"] == 0
        assert retry_events[0]["reason"] == "pool_crash"

    def test_simulator_crash_retries_match_events(self, small, tmp_path):
        """The manifest's retry counter is exact: it equals the number of
        task_retry events the engine emitted for the forced crash."""
        crash_file = str(tmp_path / "crashed")
        with obs.instrument() as ob:
            result = MonteCarloSimulator(
                small,
                trials=80,
                seed=77,
                deployment=functools.partial(
                    _crashing_uniform, crash_file=crash_file
                ),
            ).run(workers=2)
            manifest = ob.manifest()
        assert os.path.exists(crash_file)
        uninterrupted = MonteCarloSimulator(small, trials=80, seed=77).run(
            workers=2
        )
        assert fingerprint(result) == fingerprint(uninterrupted)
        # Exactly one pool crash; every charged retry has its event.
        assert manifest["counters"]["parallel.pool_crashes"] == 1
        retry_events = [
            e for e in ob.events if e["name"] == "parallel.task_retry"
        ]
        assert manifest["counters"]["parallel.task_retries"] == len(
            retry_events
        )
        # The crash left 1 or 2 shards unfinished (the sibling may or may
        # not have completed first); each was charged exactly once.
        assert 1 <= manifest["counters"]["parallel.task_retries"] <= 2
        assert manifest["counters"]["parallel.tasks"] == 2
        assert manifest["counters"]["parallel.tasks_completed"] == 2


class TestCheckpointResume:
    def test_killed_grid_sweep_resumes_to_identical_rows(self, tmp_path):
        """Acceptance: kill a checkpointed sweep, rerun, rows identical."""
        checkpoint = tmp_path / "grid.json"
        script = textwrap.dedent(
            """
            import os, sys
            from repro.experiments.sweeps import grid_sweep

            def compute(a, b):
                if a == 2 and b == 20:
                    os._exit(1)  # the "power cut"
                return {"a": a, "b": b, "product": a * b}

            grid_sweep(
                {"a": [1, 2], "b": [10, 20]},
                compute,
                checkpoint=sys.argv[1],
            )
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(checkpoint)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr  # really died mid-sweep
        state = json.loads(checkpoint.read_text())
        completed = len(state["completed"])
        assert 0 < completed < 4  # partial progress survived the kill

        def compute(a, b):
            return {"a": a, "b": b, "product": a * b}

        resumed = grid_sweep(
            {"a": [1, 2], "b": [10, 20]}, compute, checkpoint=str(checkpoint)
        )
        uninterrupted = grid_sweep({"a": [1, 2], "b": [10, 20]}, compute)
        assert resumed == uninterrupted

    def test_resumed_sweep_manifest_marks_from_checkpoint(self, tmp_path):
        """Acceptance: after a kill/resume, the manifest counts the
        checkpoint-served points and the trace names their indexes."""
        checkpoint = tmp_path / "grid.json"

        def compute(a, b):
            return {"a": a, "b": b, "product": a * b}

        # First pass completes only half the grid (simulated kill: run
        # a sweep over a prefix-compatible point set by pre-seeding the
        # checkpoint with two completed points from a real partial run).
        partial = grid_sweep(
            {"a": [1, 2], "b": [10, 20]}, compute, checkpoint=str(checkpoint)
        )
        state = json.loads(checkpoint.read_text())
        state["completed"] = {
            k: v for k, v in state["completed"].items() if k in ("0", "2")
        }
        checkpoint.write_text(json.dumps(state))

        with obs.instrument() as ob:
            resumed = grid_sweep(
                {"a": [1, 2], "b": [10, 20]},
                compute,
                checkpoint=str(checkpoint),
            )
            manifest = ob.manifest()
        assert resumed == partial
        assert manifest["counters"]["sweep.points"] == 4
        assert manifest["counters"]["sweep.points_from_checkpoint"] == 2
        assert manifest["counters"]["sweep.points_completed"] == 2
        assert manifest["counters"]["sweep.checkpoint_writes"] == 2
        (resume_event,) = [
            e for e in ob.events if e["name"] == "sweep.resume"
        ]
        assert resume_event["from_checkpoint"] == [0, 2]
        completed_events = sorted(
            e["index"]
            for e in ob.events
            if e["name"] == "sweep.point_complete"
        )
        assert completed_events == [1, 3]

    def test_killed_subprocess_sweep_resume_manifest(self, tmp_path):
        """Same accounting on a genuinely killed sweep: the survivor's
        checkpointed points are exactly the manifest's from_checkpoint."""
        checkpoint = tmp_path / "grid.json"
        script = textwrap.dedent(
            """
            import os, sys
            from repro.experiments.sweeps import grid_sweep

            def compute(a, b):
                if a == 2 and b == 20:
                    os._exit(1)  # the "power cut"
                return {"a": a, "b": b, "product": a * b}

            grid_sweep(
                {"a": [1, 2], "b": [10, 20]},
                compute,
                checkpoint=sys.argv[1],
            )
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(checkpoint)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        survived = sorted(
            int(k)
            for k in json.loads(checkpoint.read_text())["completed"]
        )
        assert survived  # partial progress really persisted

        def compute(a, b):
            return {"a": a, "b": b, "product": a * b}

        with obs.instrument() as ob:
            grid_sweep(
                {"a": [1, 2], "b": [10, 20]},
                compute,
                checkpoint=str(checkpoint),
            )
            manifest = ob.manifest()
        assert manifest["counters"]["sweep.points_from_checkpoint"] == len(
            survived
        )
        (resume_event,) = [
            e for e in ob.events if e["name"] == "sweep.resume"
        ]
        assert resume_event["from_checkpoint"] == survived


class TestFaultExperimentSmoke:
    def test_ext_faults_runs_small(self):
        record = fault_injection_experiment(
            num_sensors=60, trials=150, seed=13
        )
        assert record.experiment_id == "EXT-FAULTS"
        regimes = [row["regime"] for row in record.rows]
        assert "fault-free" in regimes and "combined" in regimes
        by_regime = {row["regime"]: row for row in record.rows}
        # The unfiltered rule saturates under a Byzantine flood.
        assert by_regime["byzantine 10%"]["simulation"] == 1.0
        assert by_regime["byzantine 10%"]["spurious_sim"] > 0
        # Faults only ever hurt genuine detection.
        clean = by_regime["fault-free"]["simulation"]
        assert by_regime["combined"]["simulation"] <= clean
        for row in record.rows:
            assert 0.0 <= row["analysis"] <= 1.0
            assert 0.0 <= row["simulation"] <= 1.0


class TestBatchedSweepResilience:
    def test_killed_batched_sweep_resumes_to_identical_rows(self, tmp_path):
        """Acceptance: a checkpointed *batched* analytical sweep killed
        during its one checkpoint write leaves the earlier file intact,
        resumes to the uninterrupted run's rows — and, because the two
        dispatch paths are byte-identical, may resume on either path.

        The batched path computes every row in one kernel call and
        writes once, so the partial file comes from a per-point run
        killed two rows in."""
        checkpoint = tmp_path / "batched.json"
        script = textwrap.dedent(
            """
            import os, sys
            from repro.experiments import sweeps
            from repro.experiments.presets import small_scenario

            batch = sys.argv[2] == "batched"
            original = sweeps._write_checkpoint
            state = {"writes": 0}

            def dying_write(path, fingerprint, completed):
                if batch:
                    os._exit(1)  # the "power cut", before the one write
                original(path, fingerprint, completed)
                state["writes"] += 1
                if state["writes"] == 2:
                    os._exit(1)  # the "power cut", two rows in

            sweeps._write_checkpoint = dying_write
            sweeps.analytical_grid_sweep(
                small_scenario(),
                {"num_sensors": [20, 40], "threshold": [1, 2]},
                checkpoint=sys.argv[1],
                batch=batch,
            )
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        written = []
        for path in ("per-point", "batched"):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(checkpoint), path],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, proc.stderr
            written.append(checkpoint.read_bytes())
        assert written[0] == written[1]  # the killed write left no trace
        survived = sorted(
            int(k)
            for k in json.loads(checkpoint.read_text())["completed"]
        )
        assert survived == [0, 1]  # exactly the two persisted rows

        from repro.experiments.presets import small_scenario
        from repro.experiments.sweeps import analytical_grid_sweep

        grids = {"num_sensors": [20, 40], "threshold": [1, 2]}
        with obs.instrument() as ob:
            resumed = analytical_grid_sweep(
                small_scenario(), grids, checkpoint=str(checkpoint)
            )
            manifest = ob.manifest()
        uninterrupted = analytical_grid_sweep(small_scenario(), grids)
        assert resumed == uninterrupted
        assert manifest["counters"]["sweep.points_from_checkpoint"] == 2
        assert manifest["counters"]["sweep.checkpoint_writes"] == 1
        (resume_event,) = [
            e for e in ob.events if e["name"] == "sweep.resume"
        ]
        assert resume_event["from_checkpoint"] == [0, 1]
        # And the per-point path resumes from the same file byte-for-byte.
        per_point = analytical_grid_sweep(
            small_scenario(), grids, batch=False, checkpoint=str(checkpoint)
        )
        assert per_point == uninterrupted
