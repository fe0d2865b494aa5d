"""Unit tests for repro.experiments.sweeps."""

import json

import numpy as np
import pytest

from repro.errors import AnalysisError, SimulationError
from repro.experiments.sweeps import (
    analytical_grid_sweep,
    distributed_grid_sweep,
    grid_sweep,
    simulated_grid_sweep,
    sweep,
)


def _square(value):
    return {"value": value, "square": value * value}


def _pair(a, b):
    return {"a": a, "b": b}


class TestSweep:
    def test_applies_in_order(self):
        rows = sweep([1, 2, 3], lambda v: {"value": v, "square": v * v})
        assert rows == [
            {"value": 1, "square": 1},
            {"value": 2, "square": 4},
            {"value": 3, "square": 9},
        ]

    def test_empty(self):
        assert sweep([], lambda v: {}) == []

    def test_parallel_matches_serial(self):
        values = list(range(6))
        assert sweep(values, _square, workers=2) == sweep(values, _square)


class TestGridSweep:
    def test_cartesian_product_row_major(self):
        rows = grid_sweep(
            {"a": [1, 2], "b": ["x", "y"]},
            lambda a, b: {"a": a, "b": b},
        )
        assert rows == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_single_axis(self):
        rows = grid_sweep({"n": [10, 20]}, lambda n: {"n2": n * 2})
        assert rows == [{"n2": 20}, {"n2": 40}]

    def test_empty_grid_runs_once(self):
        rows = grid_sweep({}, lambda: {"ok": True})
        assert rows == [{"ok": True}]

    def test_parallel_preserves_row_major_order(self):
        grids = {"a": [1, 2], "b": ["x", "y"]}
        assert grid_sweep(grids, _pair, workers=2) == grid_sweep(grids, _pair)


class TestCheckpointing:
    def test_checkpoint_written_and_rows_unchanged(self, tmp_path):
        path = tmp_path / "ck.json"
        rows = sweep([1, 2, 3], _square, checkpoint=str(path))
        assert rows == sweep([1, 2, 3], _square)
        state = json.loads(path.read_text())
        assert state["version"] == 1
        assert len(state["completed"]) == 3

    def test_resume_skips_completed_points(self, tmp_path):
        path = tmp_path / "ck.json"
        calls = []

        def compute(value):
            calls.append(value)
            return {"value": value}

        sweep([1, 2, 3], compute, checkpoint=str(path))
        assert calls == [1, 2, 3]
        rows = sweep([1, 2, 3], compute, checkpoint=str(path))
        assert calls == [1, 2, 3]  # nothing recomputed
        assert rows == [{"value": 1}, {"value": 2}, {"value": 3}]

    def test_partial_checkpoint_computes_only_missing(self, tmp_path):
        path = tmp_path / "ck.json"
        calls = []

        def compute(value):
            calls.append(value)
            return {"value": value}

        sweep([1, 2, 3], compute, checkpoint=str(path))
        state = json.loads(path.read_text())
        del state["completed"]["1"]
        path.write_text(json.dumps(state))
        rows = sweep([1, 2, 3], compute, checkpoint=str(path))
        assert calls == [1, 2, 3, 2]
        assert rows == [{"value": 1}, {"value": 2}, {"value": 3}]

    def test_mismatched_sweep_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        sweep([1, 2], _square, checkpoint=str(path))
        with pytest.raises(SimulationError):
            sweep([3, 4], _square, checkpoint=str(path))

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError):
            sweep([1], _square, checkpoint=str(path))

    def test_grid_sweep_checkpoint_resume(self, tmp_path):
        path = tmp_path / "grid.json"
        grids = {"a": [1, 2], "b": [10, 20]}
        first = grid_sweep(grids, _pair, checkpoint=str(path))
        resumed = grid_sweep(grids, _pair, checkpoint=str(path))
        assert first == resumed == grid_sweep(grids, _pair)

    def test_numpy_scalar_rows_checkpoint_and_resume(self, tmp_path):
        path = tmp_path / "ck.json"

        def compute(value):
            return {
                "value": np.int64(value),
                "mean": np.float32(value) / 2,
                "hit": np.bool_(value > 1),
                "counts": np.arange(value),
            }

        rows = sweep([1, 2], compute, checkpoint=str(path))
        assert rows[1]["value"] == 2 and rows[1]["hit"]
        state = json.loads(path.read_text())
        assert state["completed"]["0"]["counts"] == [0]
        resumed = sweep([1, 2], compute, checkpoint=str(path))
        assert resumed[0]["mean"] == 0.5
        assert [row["value"] for row in resumed] == [1, 2]

    def test_unserialisable_rows_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(TypeError, match="JSON-serialisable"):
            sweep([1], lambda value: {"bad": object()}, checkpoint=str(path))

    def test_checkpoint_with_workers(self, tmp_path):
        path = tmp_path / "ck.json"
        rows = sweep(list(range(5)), _square, workers=2, checkpoint=str(path))
        assert rows == sweep(list(range(5)), _square)
        assert len(json.loads(path.read_text())["completed"]) == 5


class TestCanonicalisation:
    """Regression tests for checkpoint-resume type drift.

    Rows that pass through a checkpoint used to come back as plain JSON
    types while freshly-computed rows kept their numpy scalars — the
    same sweep produced different bytes depending on where the resume
    boundary fell.  ``canonical_row`` now runs on every write path, so
    fresh, resumed, and wire-delivered rows are byte-identical.
    """

    @staticmethod
    def _numpy_compute(value):
        return {
            "value": np.int64(value),
            "mean": np.float32(value) / 2,
            "hit": np.bool_(value > 1),
            "counts": np.arange(value),
        }

    def test_fresh_and_resumed_rows_byte_identical(self, tmp_path):
        path = tmp_path / "ck.json"
        fresh = sweep([1, 2, 3], self._numpy_compute, checkpoint=str(path))
        state = json.loads(path.read_text())
        del state["completed"]["1"]
        path.write_text(json.dumps(state))
        resumed = sweep([1, 2, 3], self._numpy_compute, checkpoint=str(path))
        assert json.dumps(fresh) == json.dumps(resumed)

    def test_checkpointed_rows_are_plain_json_types(self, tmp_path):
        rows = sweep(
            [2], self._numpy_compute, checkpoint=str(tmp_path / "ck.json")
        )
        assert type(rows[0]["value"]) is int
        assert type(rows[0]["mean"]) is float
        assert type(rows[0]["hit"]) is bool
        assert type(rows[0]["counts"]) is list

    def test_canonical_row_sorts_keys_and_preserves_floats(self):
        from repro.experiments.sweeps import canonical_row

        row = {"b": np.float64(0.1), "a": np.int32(7)}
        canonical = canonical_row(row)
        assert list(canonical) == ["a", "b"]
        # repr round-trip: the float value is bit-exact, not rounded.
        assert canonical["b"] == 0.1 and type(canonical["b"]) is float
        assert canonical == canonical_row(canonical)

    def test_checkpoint_bytes_independent_of_completion_order(self, tmp_path):
        from repro.experiments.sweeps import _write_checkpoint

        forward = tmp_path / "fwd.json"
        backward = tmp_path / "bwd.json"
        rows = {index: {"value": index} for index in range(4)}
        reversed_rows = dict(sorted(rows.items(), reverse=True))
        _write_checkpoint(str(forward), "f" * 64, rows)
        _write_checkpoint(str(backward), "f" * 64, reversed_rows)
        assert forward.read_bytes() == backward.read_bytes()

    def test_resumed_checkpoint_file_byte_identical_to_fresh(self, tmp_path):
        fresh_path = tmp_path / "fresh.json"
        resumed_path = tmp_path / "resumed.json"
        sweep([1, 2, 3], self._numpy_compute, checkpoint=str(fresh_path))
        state = json.loads(fresh_path.read_text())
        del state["completed"]["2"]
        resumed_path.write_text(json.dumps(state))
        sweep([1, 2, 3], self._numpy_compute, checkpoint=str(resumed_path))
        assert fresh_path.read_bytes() == resumed_path.read_bytes()


class TestAnalyticalGridSweep:
    """Batched dispatch vs per-point fallback of analytical_grid_sweep."""

    @pytest.fixture
    def scenario(self, small):
        return small

    def test_rows_row_major_with_detection_column(self, scenario):
        rows = analytical_grid_sweep(
            scenario, {"num_sensors": [20, 40], "threshold": [1, 2]}
        )
        assert [(r["num_sensors"], r["threshold"]) for r in rows] == [
            (20, 1), (20, 2), (40, 1), (40, 2),
        ]
        assert all(0.0 <= r["detection_probability"] <= 1.0 for r in rows)

    def test_batched_and_per_point_rows_byte_identical(self, scenario):
        grids = {"num_sensors": [20, 40, 60], "threshold": [1, 3]}
        batched = analytical_grid_sweep(scenario, grids)
        per_point = analytical_grid_sweep(scenario, grids, batch=False)
        assert json.dumps(batched) == json.dumps(per_point)

    def test_checkpoints_byte_identical_across_paths(self, scenario, tmp_path):
        grids = {"num_sensors": [20, 40], "threshold": [1, 2, 3]}
        batched_path = tmp_path / "batched.json"
        per_point_path = tmp_path / "per_point.json"
        analytical_grid_sweep(scenario, grids, checkpoint=str(batched_path))
        analytical_grid_sweep(
            scenario, grids, batch=False, checkpoint=str(per_point_path)
        )
        assert batched_path.read_bytes() == per_point_path.read_bytes()

    def test_resume_from_per_point_checkpoint_into_batched(
        self, scenario, tmp_path
    ):
        """The checkpoint format is path-independent, so a sweep may resume
        under the other dispatch mode."""
        grids = {"num_sensors": [20, 40], "threshold": [1, 2]}
        path = tmp_path / "ck.json"
        rows = analytical_grid_sweep(
            scenario, grids, batch=False, checkpoint=str(path)
        )
        resumed = analytical_grid_sweep(scenario, grids, checkpoint=str(path))
        assert resumed == rows

    def test_fallback_on_non_batchable_axis(self, scenario):
        rows = analytical_grid_sweep(
            scenario, {"detect_prob": [0.5, 0.9], "threshold": [2]}
        )
        assert len(rows) == 2
        assert (
            rows[0]["detection_probability"] < rows[1]["detection_probability"]
        )

    def test_dispatch_flags_accept_only_bools(self, scenario):
        with pytest.raises(AnalysisError, match="batch must be True or False"):
            analytical_grid_sweep(
                scenario, {"num_sensors": [8]}, batch="auto"
            )
        with pytest.raises(SimulationError, match="fused must be True or False"):
            simulated_grid_sweep(
                scenario, {"num_sensors": [8]}, trials=10, fused="auto"
            )

    def test_unknown_field_rejected(self, scenario):
        # All three scenario-grid entry points share one check.
        for entry in (
            analytical_grid_sweep,
            simulated_grid_sweep,
            distributed_grid_sweep,
        ):
            with pytest.raises(AnalysisError, match="unknown scenario field"):
                entry(scenario, {"bogus": [1]})
            with pytest.raises(AnalysisError, match="at least one"):
                entry(scenario, {})

    def test_per_point_path_supports_workers(self, scenario):
        grids = {"num_sensors": [20, 40], "threshold": [1, 2]}
        serial = analytical_grid_sweep(scenario, grids, batch=False)
        parallel = analytical_grid_sweep(
            scenario, grids, batch=False, workers=2
        )
        assert serial == parallel

    def test_normalize_false_matches_scalar(self, scenario):
        from tests.markov_oracles import matrix_detection_probability

        rows = analytical_grid_sweep(
            scenario, {"threshold": [2]}, normalize=False
        )
        reference = matrix_detection_probability(
            scenario, threshold=2, normalize=False
        )
        assert rows[0]["detection_probability"] == pytest.approx(
            reference, abs=1e-12
        )

    def test_obs_counters_for_both_paths(self, scenario):
        from repro import obs

        instrumentation = obs.Instrumentation()
        with obs.activate(instrumentation):
            analytical_grid_sweep(
                scenario, {"num_sensors": [20, 40], "threshold": [1, 2]}
            )
            analytical_grid_sweep(scenario, {"detect_prob": [0.5, 0.9]})
        counters = instrumentation.counters
        # Every point is answered by the kernel (4 from the one grid call,
        # 2 from the fallback's singleton evaluations); only the latter
        # are also counted as fallbacks.
        assert counters["batch.points"] == 6
        assert counters["batch.fallbacks"] == 2
        assert counters["sweep.points"] == 6


def _ratio(a, b):
    return {"a": a, "b": b, "ratio": a / b}


class TestShardDispatch:
    """``workers > 1`` ships the missing points to the pool as at most
    ``4 * workers`` contiguous shards; rows, checkpoints and events must
    not tell the worker counts apart."""

    #: 9 points: 8 uneven shards at workers=2, 9 singletons at workers=3.
    GEOMETRY = {"num_sensors": [20, 30, 40], "target_speed": [4.0, 8.0, 12.0]}
    #: 35 points: 8 shards of 4-5 at workers=2, 12 of 2-3 at workers=3.
    PAIRS = {"a": [1, 2, 3, 4, 5], "b": [3, 5, 7, 9, 11, 13, 17]}

    def test_shards_are_contiguous_and_balanced(self):
        from repro.experiments.sweeps import _shards

        indexes = [0, 2, 3, 5, 6, 7, 8, 11, 12, 13, 14]
        for count in range(1, len(indexes) + 1):
            shards = _shards(indexes, count)
            assert len(shards) == count
            assert [i for shard in shards for i in shard] == indexes
            sizes = {len(shard) for shard in shards}
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1

    def test_analytical_per_point_rows_identical_across_workers(self, small):
        rows = [
            json.dumps(
                analytical_grid_sweep(
                    small, self.GEOMETRY, batch=False, workers=workers
                )
            )
            for workers in (1, 2, 3)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_grid_sweep_rows_identical_across_workers(self):
        rows = [
            json.dumps(grid_sweep(self.PAIRS, _ratio, workers=workers))
            for workers in (1, 2, 3)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_simulated_per_point_rows_identical_across_workers(self, small):
        rows = [
            json.dumps(
                simulated_grid_sweep(
                    small,
                    self.GEOMETRY,
                    trials=40,
                    seed=5,
                    fused=False,
                    workers=workers,
                )
            )
            for workers in (1, 2, 3)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_checkpoint_bytes_identical_across_workers(self, small, tmp_path):
        written = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.json"
            analytical_grid_sweep(
                small,
                self.GEOMETRY,
                batch=False,
                workers=workers,
                checkpoint=str(path),
            )
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_resume_from_part_of_a_shard(self, tmp_path, workers):
        fresh_path = tmp_path / "fresh.json"
        fresh = grid_sweep(self.PAIRS, _ratio, checkpoint=str(fresh_path))
        state = json.loads(fresh_path.read_text())
        # Keep the first two rows of the first shard and one row from the
        # middle of another: the resumed run re-shards what is missing.
        state["completed"] = {
            key: row
            for key, row in state["completed"].items()
            if key in ("0", "1", "17")
        }
        resumed_path = tmp_path / "resumed.json"
        resumed_path.write_text(json.dumps(state))
        resumed = grid_sweep(
            self.PAIRS, _ratio, workers=workers, checkpoint=str(resumed_path)
        )
        assert json.dumps(resumed) == json.dumps(fresh)
        assert resumed_path.read_bytes() == fresh_path.read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_point_complete_once_per_point(self, tmp_path, workers):
        from repro import obs

        points = len(self.PAIRS["a"]) * len(self.PAIRS["b"])
        with obs.instrument() as ob:
            grid_sweep(
                self.PAIRS,
                _ratio,
                workers=workers,
                checkpoint=str(tmp_path / "ck.json"),
            )
        completed = [
            e["index"] for e in ob.events if e["name"] == "sweep.point_complete"
        ]
        assert sorted(completed) == list(range(points))
        assert ob.counters["sweep.points_completed"] == points
        # One pool task, and one checkpoint write, per shard.
        assert ob.counters["parallel.tasks"] == 4 * workers
        assert ob.counters["sweep.checkpoint_writes"] == 4 * workers


class TestBatchedRows:
    """The batched branch reads its rows off the kernel table in one pass;
    rows, checkpoint bytes and counters must match the point-by-point
    build (``tests/sweep_oracles.py``) and the per-point path."""

    GRIDS = {
        "n_by_k": {"num_sensors": [20, 30, 40, 60], "threshold": [1, 2, 5]},
        "k_by_n": {"threshold": [4, 1, 2], "num_sensors": [60, 20]},
        "n_only": {"num_sensors": [20, 40, 80]},
        "k_only": {"threshold": [0, 3, 7]},
        "duplicates": {"num_sensors": [40, 20, 40], "threshold": [2, 2, 1]},
        "numpy_ints": {
            "num_sensors": [np.int64(20), np.int64(50)],
            "threshold": [np.int64(1), 3],
        },
        "scenario_default": {"num_sensors": [40], "threshold": [3]},
    }

    @pytest.mark.parametrize("shape", sorted(GRIDS))
    def test_rows_byte_identical_to_oracle(self, small, shape):
        from tests.sweep_oracles import batched_rows_oracle

        grids = self.GRIDS[shape]
        rows = analytical_grid_sweep(small, grids)
        assert json.dumps(rows) == json.dumps(batched_rows_oracle(small, grids))
        assert all(
            type(row[name]) is int for row in rows for name in grids
        )

    def test_options_reach_the_kernel(self, small):
        from tests.sweep_oracles import batched_rows_oracle

        grids = self.GRIDS["n_by_k"]
        options = {"body_truncation": 2, "substeps": 2, "normalize": False}
        rows = analytical_grid_sweep(small, grids, **options)
        assert json.dumps(rows) == json.dumps(
            batched_rows_oracle(small, grids, **options)
        )

    def test_counters_and_no_per_row_events(self, small):
        from repro import obs

        grids = self.GRIDS["n_by_k"]
        with obs.instrument() as ob:
            analytical_grid_sweep(small, grids)
        assert ob.counters["sweep.points"] == 12
        assert ob.counters["sweep.points_completed"] == 12
        assert "sweep.checkpoint_writes" not in ob.counters
        assert "batch.fallbacks" not in ob.counters
        names = {e["name"] for e in ob.events} | {s["name"] for s in ob.spans}
        assert not names & {"sweep.point", "sweep.point_complete"}

    def _per_point_bytes(self, scenario, grids, path):
        """The per-point path's checkpoint: the format's reference bytes."""
        analytical_grid_sweep(
            scenario, grids, batch=False, checkpoint=str(path)
        )
        return path.read_bytes()

    def test_fresh_checkpoint_written_once(self, small, tmp_path):
        from repro import obs

        grids = self.GRIDS["k_by_n"]
        path = tmp_path / "batched.json"
        with obs.instrument() as ob:
            rows = analytical_grid_sweep(small, grids, checkpoint=str(path))
        assert rows == analytical_grid_sweep(small, grids)
        assert path.read_bytes() == self._per_point_bytes(
            small, grids, tmp_path / "per_point.json"
        )
        assert ob.counters["sweep.checkpoint_writes"] == 1
        assert ob.counters["sweep.points_completed"] == 6
        assert "sweep.points_from_checkpoint" not in ob.counters

    def test_partial_resume_fills_the_rest_in_one_write(self, small, tmp_path):
        from repro import obs

        grids = self.GRIDS["duplicates"]
        path = tmp_path / "ck.json"
        fresh = analytical_grid_sweep(small, grids, checkpoint=str(path))
        fresh_bytes = path.read_bytes()
        state = json.loads(fresh_bytes)
        state["completed"] = {
            key: row
            for key, row in state["completed"].items()
            if key in ("0", "4", "8")
        }
        path.write_text(json.dumps(state))
        with obs.instrument() as ob:
            resumed = analytical_grid_sweep(small, grids, checkpoint=str(path))
        assert json.dumps(resumed) == json.dumps(fresh)
        assert path.read_bytes() == fresh_bytes
        assert ob.counters["sweep.points"] == 9
        assert ob.counters["sweep.points_from_checkpoint"] == 3
        assert ob.counters["sweep.points_completed"] == 6
        assert ob.counters["sweep.checkpoint_writes"] == 1
        (resume,) = [e for e in ob.events if e["name"] == "sweep.resume"]
        assert resume["from_checkpoint"] == [0, 4, 8]
        assert "sweep.point_complete" not in {e["name"] for e in ob.events}

    def test_full_resume_returns_the_file_untouched(self, small, tmp_path):
        from repro import obs

        grids = self.GRIDS["numpy_ints"]
        path = tmp_path / "ck.json"
        fresh = analytical_grid_sweep(small, grids, checkpoint=str(path))
        fresh_bytes = path.read_bytes()
        with obs.instrument() as ob:
            resumed = analytical_grid_sweep(small, grids, checkpoint=str(path))
        assert json.dumps(resumed) == json.dumps(fresh)
        assert path.read_bytes() == fresh_bytes
        assert ob.counters["sweep.points_from_checkpoint"] == 4
        # Nothing was missing, so nothing is computed or rewritten, as on
        # the per-point path.
        assert "sweep.points_completed" not in ob.counters
        assert "sweep.checkpoint_writes" not in ob.counters

    def test_checkpoint_from_another_sweep_rejected(self, small, tmp_path):
        path = tmp_path / "ck.json"
        analytical_grid_sweep(
            small, self.GRIDS["n_only"], checkpoint=str(path)
        )
        with pytest.raises(SimulationError, match="different sweep"):
            analytical_grid_sweep(
                small, self.GRIDS["k_only"], checkpoint=str(path)
            )

    def test_parallel_map_not_called(self, small, monkeypatch):
        import repro.experiments.sweeps as sweeps

        def refuse(*args, **kwargs):
            raise AssertionError("a batched grid reached the executor")

        monkeypatch.setattr(sweeps, "parallel_map", refuse)
        rows = analytical_grid_sweep(small, self.GRIDS["n_by_k"], workers=2)
        assert len(rows) == 12


def _no_cycles_left(call):
    """Run ``call`` with the collector off; True when it left no cyclic
    garbage behind."""
    import gc

    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect() == 0
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """Grid sweeps free their point lists by reference counting: a cycle
    would keep every point of a large grid alive until a full collection."""

    def test_batched_grid(self, small):
        grids = {"num_sensors": [20, 30, 40], "threshold": [1, 2]}
        analytical_grid_sweep(small, grids)  # warm lazy imports and caches
        assert _no_cycles_left(lambda: analytical_grid_sweep(small, grids))

    def test_checkpointed_batched_grid(self, small, tmp_path):
        grids = {"num_sensors": [20, 30, 40], "threshold": [1, 2]}
        paths = iter(str(tmp_path / f"ck{i}.json") for i in range(2))
        analytical_grid_sweep(small, grids, checkpoint=next(paths))
        assert _no_cycles_left(
            lambda: analytical_grid_sweep(small, grids, checkpoint=next(paths))
        )

    def test_per_point_grid(self, small):
        grids = {"num_sensors": [20, 30], "target_speed": [4.0, 8.0]}
        analytical_grid_sweep(small, grids)
        assert _no_cycles_left(lambda: analytical_grid_sweep(small, grids))

    def test_grid_sweep(self):
        grids = {"a": [1, 2, 3], "b": [4, 5]}
        grid_sweep(grids, _pair)
        assert _no_cycles_left(lambda: grid_sweep(grids, _pair))
