"""Cross-path sweep equivalence matrix.

Every way the repo can run a parameter sweep must agree on the same
grid.  For the analytical model the bar is **byte identity**: the
batched kernel, the per-point path (serial and pooled), the
checkpoint-resumed path, the service ``/sweep`` endpoint, and the
distributed work-stealing path (1, 2, and 4 workers) must produce the
same ``json.dumps`` bytes for the rows, and paths that write a
checkpoint must write the same file bytes.  For Monte Carlo the bar is
**seed identity**: per-point, distributed, and resumed paths share the
common-random-numbers design, so the same root seed gives the same
rows bitwise; the fused engine is its own deterministic path and meets
the per-point rows at ``N = max(num_sensors)`` bitwise.
"""

import asyncio
import json

import pytest

from repro.experiments.presets import small_scenario
from repro.experiments.sweeps import (
    analytical_grid_sweep,
    distributed_grid_sweep,
    simulated_grid_sweep,
)

GRIDS = {"num_sensors": [8, 12, 16], "threshold": [1, 2]}
MC_GRIDS = {"num_sensors": [6, 10]}
#: One axis per ``/sweep``-able field (``SWEEPABLE_FIELDS``); real
#: fields are spelled as floats, the form the service canonicalises to.
SERVICE_AXES = {
    "num_sensors": [8, 12, 16],
    "sensing_range": [200.0, 250.0, 300.0],
    "target_speed": [8.0, 10.0, 12.0],
    "sensing_period": [12.0, 15.0, 18.0],
    "detect_prob": [0.5, 0.9, 1.0],
    "window": [8, 12, 16],
    "threshold": [1, 2, 3],
}
MC_TRIALS = 300
MC_SEED = 20080619


@pytest.fixture(scope="module")
def scenario():
    return small_scenario()


@pytest.fixture(scope="module")
def serial_rows(scenario):
    """The reference: the batched serial path."""
    return analytical_grid_sweep(scenario, GRIDS)


def _bytes(rows):
    return json.dumps(rows, sort_keys=True)


class TestAnalyticalMatrix:
    def test_per_point_serial_matches_batched(self, scenario, serial_rows):
        rows = analytical_grid_sweep(scenario, GRIDS, batch=False)
        assert _bytes(rows) == _bytes(serial_rows)

    def test_per_point_pooled_matches_batched(self, scenario, serial_rows):
        rows = analytical_grid_sweep(scenario, GRIDS, batch=False, workers=2)
        assert _bytes(rows) == _bytes(serial_rows)

    def test_checkpoint_resume_matches_fresh(
        self, scenario, serial_rows, tmp_path
    ):
        fresh_ck = tmp_path / "fresh.json"
        resumed_ck = tmp_path / "resumed.json"
        fresh = analytical_grid_sweep(
            scenario, GRIDS, checkpoint=str(fresh_ck)
        )
        state = json.loads(fresh_ck.read_text())
        for lost in ("1", "4"):
            del state["completed"][lost]
        resumed_ck.write_text(json.dumps(state))
        resumed = analytical_grid_sweep(
            scenario, GRIDS, checkpoint=str(resumed_ck)
        )
        assert _bytes(fresh) == _bytes(resumed) == _bytes(serial_rows)
        assert fresh_ck.read_bytes() == resumed_ck.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_distributed_matches_serial(
        self, scenario, serial_rows, tmp_path, workers
    ):
        dist_ck = tmp_path / f"dist{workers}.json"
        serial_ck = tmp_path / f"serial{workers}.json"
        rows = distributed_grid_sweep(
            scenario,
            GRIDS,
            workers=workers,
            checkpoint=str(dist_ck),
            timeout=120,
        )
        assert _bytes(rows) == _bytes(serial_rows)
        analytical_grid_sweep(scenario, GRIDS, checkpoint=str(serial_ck))
        assert dist_ck.read_bytes() == serial_ck.read_bytes()

    @pytest.mark.parametrize(
        "parameter", list(SERVICE_AXES), ids=list(SERVICE_AXES)
    )
    def test_service_sweep_matches_serial_axis(self, scenario, parameter):
        from repro.service import AnalysisService, ServiceConfig

        from repro.service.handlers import SWEEPABLE_FIELDS

        assert set(SERVICE_AXES) == set(SWEEPABLE_FIELDS)
        axis = SERVICE_AXES[parameter]
        reference = analytical_grid_sweep(scenario, {parameter: axis})

        async def drive():
            service = AnalysisService(ServiceConfig(workers=1, replicas=1))
            try:
                body = json.dumps(
                    {
                        "scenario": scenario.to_dict(),
                        "parameter": parameter,
                        "values": axis,
                    }
                ).encode()
                status, _, payload = await service.dispatch(
                    "POST", "/sweep", body
                )
                return status, json.loads(payload)
            finally:
                await service.stop()

        status, payload = asyncio.run(drive())
        assert status == 200
        assert _bytes(payload["rows"]) == _bytes(reference)


class TestMonteCarloMatrix:
    @pytest.fixture(scope="class")
    def per_point_rows(self, scenario):
        return simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=False
        )

    def test_distributed_matches_per_point_serial(
        self, scenario, per_point_rows, tmp_path
    ):
        dist_ck = tmp_path / "dist.json"
        serial_ck = tmp_path / "serial.json"
        rows = distributed_grid_sweep(
            scenario,
            MC_GRIDS,
            kind="simulated",
            trials=MC_TRIALS,
            seed=MC_SEED,
            workers=2,
            checkpoint=str(dist_ck),
            timeout=300,
        )
        assert _bytes(rows) == _bytes(per_point_rows)
        simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(serial_ck),
        )
        assert dist_ck.read_bytes() == serial_ck.read_bytes()

    def test_resumed_matches_fresh(self, scenario, per_point_rows, tmp_path):
        path = tmp_path / "ck.json"
        simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(path),
        )
        state = json.loads(path.read_text())
        del state["completed"]["0"]
        path.write_text(json.dumps(state))
        resumed = simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(path),
        )
        assert _bytes(resumed) == _bytes(per_point_rows)

    def test_fused_path_is_deterministic(self, scenario):
        first = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        second = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        assert _bytes(first) == _bytes(second)

    def test_fused_meets_per_point_at_full_population(
        self, scenario, per_point_rows
    ):
        """The common-random-numbers contract from the fused engine: at
        ``N = max(num_sensors)`` both paths draw the same trials."""
        fused = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        n_max = max(MC_GRIDS["num_sensors"])
        fused_row = next(r for r in fused if r["num_sensors"] == n_max)
        serial_row = next(
            r for r in per_point_rows if r["num_sensors"] == n_max
        )
        assert fused_row == serial_row
