"""``repro.obs`` — run telemetry: tracing, metrics, progress (PR 9).

The observability layer shared by every engine and worker:

* :mod:`repro.obs.clock` — the one sanctioned monotonic-clock seam
  (enforced by the OBS001 contract checker);
* :mod:`repro.obs.tracer` — phase-attributed span tracing with a
  near-zero-cost disabled path;
* :mod:`repro.obs.metrics` — typed counters and gauges behind
  ``LayoutResult.summary()``;
* :mod:`repro.obs.trace_file` — the versioned JSONL trace sink
  (``LayoutParams(trace=...)`` / ``repro layout --trace``) and the merge
  of per-worker streams into one ordered trace (shm workers send their
  spans with each iteration's reply);
* :mod:`repro.obs.summarize` — ``repro trace summarize/compare`` rendering.

Deliberately a leaf package: it imports nothing from ``repro.core`` (or
above), so every layer — core, parallel, multilevel, bench, cli — can
depend on it without cycles.
"""
from . import clock
from .metrics import MetricsRegistry, MetricsSnapshot
from .trace_file import (TRACE_SCHEMA_VERSION, TraceDoc, TraceSchemaError,
                         merge_events, read_trace, write_trace)
from .tracer import NULL_TRACER, TraceEvent, Tracer, event_structure

__all__ = [
    "clock",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TRACE_SCHEMA_VERSION",
    "TraceDoc",
    "TraceSchemaError",
    "merge_events",
    "read_trace",
    "write_trace",
    "NULL_TRACER",
    "TraceEvent",
    "Tracer",
    "event_structure",
]
