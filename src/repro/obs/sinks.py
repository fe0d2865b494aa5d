"""Event sinks: where instrumentation records stream as they happen.

The only shipping sink is :class:`JsonlSink` — one JSON object per line,
flushed after every write so a crash (the very thing the resilient
executor instruments) leaves a readable prefix rather than a truncated
buffer.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Union

import numpy as np

__all__ = ["JsonlSink"]


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars/arrays so event payloads serialise cleanly."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


class JsonlSink:
    """Append-only JSONL writer with per-record flushing.

    Args:
        path: file to create/truncate; every :meth:`write` appends one
            line.  The sink owns the handle — call :meth:`close` (or use
            :func:`repro.obs.instrument`, which does) when the run ends.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]):
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        """Serialise one record as a JSON line and flush it."""
        if self._handle is None:
            return
        self._handle.write(
            json.dumps(record, default=_json_default) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
