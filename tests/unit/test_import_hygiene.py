"""Cold-start guard: ``import repro`` loads no ``scipy.stats``, ``scipy.signal`` or networkx.

The scipy modules cost ~1 s to import and networkx ~0.15 s, and no
analysis, sweep, service or stream path needs them at start-up, so the
modules that use them import them inside the function.  The check runs in
a fresh interpreter, because this test process has long since imported
all three.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro",
    "repro.experiments.cli",
    "repro.experiments.sweeps",
    "repro.adaptive",
    "repro.core.design",
    "repro.service.server",
    "repro.streaming",
    "repro.streaming.cli",
)
DEFERRED = ("scipy.stats", "scipy.signal", "networkx")


def _deferred_modules_loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; report which deferred modules loaded."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps({{m: m in sys.modules for m in {DEFERRED!r}}}))\n"
    )
    package_root = pathlib.Path(repro.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_entry_points_leave_deferred_scipy_modules_unloaded():
    imports = "\n".join(f"import {name}" for name in ENTRY_POINTS)
    assert _deferred_modules_loaded_after(imports) == {
        name: False for name in DEFERRED
    }


def test_stage_accuracy_loads_scipy_stats_on_first_use():
    loaded = _deferred_modules_loaded_after(
        "import repro\n"
        "from repro.core.accuracy import stage_accuracy\n"
        "assert 0.0 < stage_accuracy(240, 1.4e7, 1.024e9, 3) < 1.0\n"
    )
    assert loaded == {"scipy.stats": True, "scipy.signal": False, "networkx": False}


def test_network_latency_experiment_loads_networkx_on_first_use():
    loaded = _deferred_modules_loaded_after(
        "from repro.experiments.figures import network_latency_experiment\n"
        "record = network_latency_experiment(node_counts=(60,), deployments=1)\n"
        "assert len(record.rows) == 1\n"
    )
    assert loaded["networkx"] is True
