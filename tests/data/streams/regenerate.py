"""Regenerate the golden stream corpus (deterministic).

Run from the repository root::

    PYTHONPATH=src:. python tests/data/streams/regenerate.py

Rewrites every recording and manifest in this directory from fixed
seeds.  The output must be byte-identical run-to-run — the corpus tests
(``tests/integration/test_stream_corpus.py``) additionally pin the
record → replay → re-record round trip, so a detector or protocol
change that alters any byte fails loudly and this script is how the
corpus is consciously re-pinned afterwards.

Episodes (all on the ``small_scenario`` preset, M=12, k=3):

* ``single_target``   — one straight-line crossing, clean delivery;
* ``multi_target``    — two simultaneous crossings plus false alarms;
* ``faulted_dropout`` — single target pushed through the delivery-fault
  path (report loss + delivery delay), the degraded-network fixture;
* ``quiet_false_alarms`` — no target at all, only node false alarms
  (the false-positive side of the rule).
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from repro.detection.group import deliver_reports
from repro.experiments.presets import small_scenario
from repro.faults import FaultModel
from repro.simulation.streams import (
    simulate_multi_target_stream,
    simulate_report_stream,
)
from repro.streaming.recorder import StreamRecorder
from tests.support import record_episode

HERE = pathlib.Path(__file__).resolve().parent


def _single_target(path: pathlib.Path) -> dict:
    scenario = small_scenario()
    episode = simulate_report_stream(
        scenario, rng=np.random.default_rng(5), false_alarm_prob=0.0
    )
    return record_episode(episode, path, seed=5)


def _multi_target(path: pathlib.Path) -> dict:
    scenario = small_scenario()
    rng = np.random.default_rng(23)
    field = scenario.field
    starts = rng.uniform(
        (0.0, 0.0), (field.width, field.height), size=(2, 2)
    )
    episode = simulate_multi_target_stream(
        scenario, starts, rng=rng, false_alarm_prob=0.01
    )
    return record_episode(episode, path, seed=23)


def _faulted_dropout(path: pathlib.Path) -> dict:
    scenario = small_scenario()
    episode = simulate_report_stream(
        scenario, rng=np.random.default_rng(37), false_alarm_prob=0.01
    )
    faults = FaultModel(
        delivery_loss_prob=0.25, delay_prob=0.25, delay_periods=2
    )
    meta = {
        "true_report_count": episode.true_report_count,
        "false_report_count": episode.false_report_count,
        "faults": {
            "delivery_loss_prob": 0.25,
            "delay_prob": 0.25,
            "delay_periods": 2,
        },
    }
    with StreamRecorder(path, scenario, seed=37, meta=meta) as recorder:
        for period, reports in deliver_reports(
            episode.stream(), faults, np.random.default_rng(38)
        ):
            recorder.write_period(period, reports)
    return recorder.close()


def _quiet_false_alarms(path: pathlib.Path) -> dict:
    scenario = small_scenario()
    episode = simulate_report_stream(
        scenario,
        rng=np.random.default_rng(55),
        target_present=False,
        false_alarm_prob=0.005,
    )
    return record_episode(episode, path, seed=55)


EPISODES = {
    "single_target": _single_target,
    "multi_target": _multi_target,
    "faulted_dropout": _faulted_dropout,
    "quiet_false_alarms": _quiet_false_alarms,
}


def main() -> int:
    for name, build in EPISODES.items():
        path = HERE / f"{name}.jsonl"
        manifest = build(path)
        print(
            f"{name}: {manifest['periods']} periods, "
            f"{manifest['total_reports']} reports, detections at "
            f"{manifest['detection_periods']}, event digest "
            f"{manifest['event_digest'][:12]}..."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
