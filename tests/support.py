"""Test tooling that no user path runs: trace reading and episode recording."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.streaming.recorder import StreamRecorder


def read_jsonl(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into a list of records (blank lines skipped)."""
    records = []
    with open(str(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def record_episode(
    episode,
    path: Union[str, os.PathLike],
    seed: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Record a simulated episode; return its manifest.

    Works for any episode object exposing ``scenario`` and a
    ``stream()`` of ``(period, reports)`` pairs —
    :class:`~repro.simulation.streams.ReportStreamEpisode`,
    :class:`~repro.simulation.streams.MultiTargetEpisode`, or a faulted
    stream materialised through
    :func:`repro.detection.group.deliver_reports`.

    Args:
        episode: the episode to record.
        path: recording file.
        seed: episode seed for the hello frame.
        meta: extra metadata; the episode's own report counters are
            added automatically when present.
    """
    merged: Dict[str, Any] = {}
    for attr in ("true_report_count", "false_report_count"):
        value = getattr(episode, attr, None)
        if value is not None:
            merged[attr] = int(value)
    if hasattr(episode, "num_targets"):
        merged["num_targets"] = int(episode.num_targets)
    if meta:
        merged.update(meta)
    with StreamRecorder(
        path, episode.scenario, seed=seed, meta=merged or None
    ) as recorder:
        for period, reports in episode.stream():
            recorder.write_period(period, list(reports))
    return recorder.close()
