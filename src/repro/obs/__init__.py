"""repro.obs — tracing, counters, and run manifests for the repro stack.

The observability subsystem behind ``repro <experiment> --trace/--profile``
and the manifest blocks in benchmark records.  Three pieces:

* :mod:`repro.obs.instrumentation` — hierarchical spans, monotone
  counters, gauges, structured events, and the process-wide *active*
  instrumentation (a zero-overhead null object by default);
* :mod:`repro.obs.sinks` — the JSONL event sink;
* :mod:`repro.obs.manifest` — manifest persistence and the human profile
  table.

Typical use::

    from repro import obs

    with obs.instrument(trace="run.jsonl") as ob:
        ob.set_run_info(seed=7, workers=4)
        with ob.span("experiment:fig9a"):
            ...            # instrumented library code records itself
    # run.jsonl now ends with {"type": "manifest", ...}

Library code participates by asking :func:`repro.obs.current` for the
active instance and guarding bookkeeping with ``if ob.enabled:`` — see
``docs/observability.md`` for the event schema and counter names.
"""

from repro.obs.instrumentation import (
    NULL_INSTRUMENTATION,
    OBS_SCHEMA_VERSION,
    Instrumentation,
    NullInstrumentation,
    Span,
    activate,
    current,
    instrument,
    scenario_fingerprint,
)
from repro.obs.manifest import render_profile, write_manifest
from repro.obs.sinks import JsonlSink

__all__ = [
    "NULL_INSTRUMENTATION",
    "OBS_SCHEMA_VERSION",
    "Instrumentation",
    "JsonlSink",
    "NullInstrumentation",
    "Span",
    "activate",
    "current",
    "instrument",
    "render_profile",
    "scenario_fingerprint",
    "write_manifest",
]
