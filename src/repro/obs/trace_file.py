"""Versioned JSONL trace sink (``LayoutParams(trace=...)`` / ``--trace``).

File layout — one JSON object per line, mirroring the schema discipline of
:mod:`repro.bench.schema` (validated writes, explicit version, loud
rejection of documents a build cannot read)::

    {"record": "header", "schema_version": "1.0", "meta": {...}}
    {"record": "event", "name": "iteration", "t0": ..., "dur": ...,
     "iteration": 0, "count": 1, "labels": {"engine": "cpu-baseline"}}
    ...
    {"record": "end", "events": 42, "dropped": 0}

Versioning contract: ``schema_version`` is ``"<major>.<minor>"``. A reader
accepts any minor of its own major (minor bumps only ever *add* record
kinds or optional fields — unknown record kinds are skipped on read) and
rejects any other major outright. The ``end`` record marks a complete
write (a truncated file fails loudly, like a half-written BENCH json
would). Its ``dropped`` field is always written as 0: shm workers send
their spans with each iteration's reply, so none are dropped. Older
files, written while workers traced into fixed-size shared-memory rings,
may carry a positive count; :func:`read_trace` still reads it.

Timestamps are monotonic-clock seconds (:mod:`repro.obs.clock`) with an
arbitrary per-boot epoch: durations and within-file orderings are
meaningful, absolute values are not. Deliberately **no wall-clock date** is
recorded — trace files of the same run are byte-identical modulo the
monotonic timestamps, which keeps the structure-determinism tests honest.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .tracer import TraceEvent

__all__ = [
    "TRACE_SCHEMA_MAJOR",
    "TRACE_SCHEMA_MINOR",
    "TRACE_SCHEMA_VERSION",
    "TraceSchemaError",
    "TraceDoc",
    "parse_schema_version",
    "write_trace",
    "read_trace",
    "merge_events",
]

TRACE_SCHEMA_MAJOR = 1
TRACE_SCHEMA_MINOR = 0
TRACE_SCHEMA_VERSION = f"{TRACE_SCHEMA_MAJOR}.{TRACE_SCHEMA_MINOR}"


class TraceSchemaError(Exception):
    """A trace file does not conform to the published schema."""


@dataclass
class TraceDoc:
    """A parsed trace: header metadata plus the ordered event stream."""

    meta: Dict[str, Any] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    schema_version: str = TRACE_SCHEMA_VERSION


def parse_schema_version(version: Any) -> Tuple[int, int]:
    """Split ``"<major>.<minor>"`` into ints; reject malformed strings."""
    if not isinstance(version, str):
        raise TraceSchemaError(
            f"schema_version: expected '<major>.<minor>' string, "
            f"got {type(version).__name__}")
    parts = version.split(".")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise TraceSchemaError(
            f"schema_version {version!r}: expected '<major>.<minor>'")
    return int(parts[0]), int(parts[1])


def write_trace(path: str, events: Sequence[TraceEvent],
                meta: Optional[Mapping[str, Any]] = None) -> None:
    """Atomically write one trace file (tmp file + ``os.replace``)."""
    header = {"record": "header", "schema_version": TRACE_SCHEMA_VERSION,
              "meta": dict(meta or {})}
    footer = {"record": "end", "events": len(events), "dropped": 0}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_record(), sort_keys=True) + "\n")
        fh.write(json.dumps(footer, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _parse_line(line: str, lineno: int, path: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(
            f"{path}:{lineno}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict) or not isinstance(record.get("record"), str):
        raise TraceSchemaError(
            f"{path}:{lineno}: expected an object with a 'record' kind")
    return record


def read_trace(path: str) -> TraceDoc:
    """Read and validate one trace file.

    Raises :class:`TraceSchemaError` for: a missing/malformed header, a
    schema major this build does not read, malformed event records, a
    missing ``end`` record (truncated write), or an ``end`` count that
    disagrees with the events actually present. Record kinds introduced by
    later minors of the same major are skipped, per the versioning
    contract.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise TraceSchemaError(f"{path}: empty trace file")
    header = _parse_line(lines[0], 1, path)
    if header["record"] != "header":
        raise TraceSchemaError(
            f"{path}:1: first record must be the header, got "
            f"{header['record']!r}")
    major, minor = parse_schema_version(header.get("schema_version"))
    if major != TRACE_SCHEMA_MAJOR:
        raise TraceSchemaError(
            f"{path}: schema major {major} unsupported (this build reads "
            f"major {TRACE_SCHEMA_MAJOR}; minors are forward-compatible, "
            "majors are not)")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceSchemaError(f"{path}:1: header meta must be an object")

    events: List[TraceEvent] = []
    end: Optional[Dict[str, Any]] = None
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_line(line, lineno, path)
        kind = record["record"]
        if end is not None:
            raise TraceSchemaError(
                f"{path}:{lineno}: record after the 'end' marker")
        if kind == "event":
            try:
                events.append(TraceEvent.from_record(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceSchemaError(
                    f"{path}:{lineno}: malformed event record ({exc})"
                ) from exc
        elif kind == "end":
            end = record
        elif kind == "header":
            raise TraceSchemaError(f"{path}:{lineno}: duplicate header")
        # Unknown kinds: skipped (a later minor of this major added them).
    if end is None:
        raise TraceSchemaError(
            f"{path}: no 'end' record — the trace was truncated mid-write")
    declared = end.get("events")
    if declared != len(events):
        raise TraceSchemaError(
            f"{path}: end record declares {declared} event(s) but "
            f"{len(events)} were read")
    dropped = end.get("dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        raise TraceSchemaError(f"{path}: end.dropped must be a count")
    return TraceDoc(meta=dict(meta), events=events, dropped=dropped,
                    schema_version=f"{major}.{minor}")


def merge_events(streams: Sequence[Sequence[TraceEvent]]) -> List[TraceEvent]:
    """Merge per-process event streams into one ordered trace.

    Each stream is assumed internally ordered by emission (which tracers
    and the shm engine's per-worker streams guarantee by construction).
    The merge sorts by start time with a **stable interleave**: events with equal
    ``t0`` keep stream order (lower stream index first) and, within one
    stream, emission order — so the merged trace is deterministic given the
    streams, and every stream's own ordering survives verbatim. Timestamps
    are comparable across processes wherever the platform's monotonic clock
    is system-wide (Linux; see :mod:`repro.obs.clock`).
    """
    decorated = [
        (event.t0, stream_index, seq, event)
        for stream_index, stream in enumerate(streams)
        for seq, event in enumerate(stream)
    ]
    decorated.sort(key=lambda item: (item[0], item[1], item[2]))
    return [event for _, _, _, event in decorated]
