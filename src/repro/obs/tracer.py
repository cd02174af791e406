"""Structured run tracing: phase-attributed spans with a near-zero off path.

The paper's analysis (Sec. V, Tables II/IV/VII) attributes runtime to
phases — selection, displacement/merge — and this module is the
interpreter-side analogue: engines emit one :class:`TraceEvent` per phase
per iteration (aggregated over batches/chunks, so event volume is
O(iterations), never O(terms)), and ``repro trace summarize`` renders the
phase breakdown from the recorded events.

Span taxonomy (the ``name`` field; any string is a valid name, in shm
workers too, whose spans reach the parent as :class:`TraceEvent` objects):

``schedule``
    Per-run setup: plan/workspace/fused-plan construction, worker spawn.
``draw``
    Per-iteration PRNG megablock draws (fused path), aggregated over chunks.
``dispatch``
    Per-iteration ``backend.run_iteration`` calls, aggregated over chunks.
``selection`` / ``merge``
    The two halves of the update work: term selection and the sequential
    per-segment write merge. Emitted by :func:`repro.core.fused
    .run_iteration_host` per chunk.
``iteration``
    The whole-iteration span enclosing the above.
``level`` / ``prolong``
    Multilevel V-cycle: one span per hierarchy level, one per prolongation.

Cost discipline: engines read ``tracer.enabled`` once into a local and
guard every clock read with it, so the disabled path costs one branch per
guarded site — the ``perf_trace_overhead`` smoke gate holds the enabled
path's overhead too. Tracing only ever *reads* the clock and appends
events; it never touches coordinates or PRNG draw order, so traced and
untraced layouts are byte-identical (asserted by the same gate).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from . import clock

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "event_structure"]


@dataclass
class TraceEvent:
    """One recorded span: a named phase with a start time and a duration.

    ``iteration`` is ``-1`` for per-run events (setup);
    ``count`` carries the phase's work-unit count (chunks dispatched, terms
    selected, segments merged — see the taxonomy above). ``labels`` is the
    emitting tracer's label set (engine/backend/level/worker) and is shared,
    not copied, per event; label dicts are never mutated after binding.
    """

    name: str
    t0: float
    dur: float
    iteration: int = -1
    count: int = 1
    labels: Mapping[str, str] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """JSONL-ready record (see :mod:`repro.obs.trace_file`)."""
        record: Dict[str, Any] = {
            "record": "event",
            "name": self.name,
            "t0": float(self.t0),
            "dur": float(self.dur),
            "iteration": int(self.iteration),
            "count": int(self.count),
        }
        if self.labels:
            record["labels"] = dict(self.labels)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            name=str(record["name"]),
            t0=float(record["t0"]),
            dur=float(record["dur"]),
            iteration=int(record.get("iteration", -1)),
            count=int(record.get("count", 1)),
            labels=dict(record.get("labels", {})),
        )


def event_structure(events) -> List[Tuple]:
    """Timestamp-free view of a trace: ``(name, iteration, count, labels)``.

    This is the byte-stable part of a trace — two runs of the same commit
    and seed produce identical structures even though every timestamp
    differs. Tests and the ``perf_trace_overhead`` gate compare this.
    """
    return [
        (e.name, int(e.iteration), int(e.count), tuple(sorted(e.labels.items())))
        for e in events
    ]


class Tracer:
    """Collects :class:`TraceEvent` spans into a shared in-memory list.

    A tracer is a *view* onto one event list plus a label set:
    :meth:`bind` returns a new view sharing the same list with labels
    merged in, which is how the multilevel driver hands each level engine a
    ``level=k``-labelled tracer and the inline shm path labels per-worker
    events — everything still lands in one ordered stream.

    Engines hold :data:`NULL_TRACER` (``enabled = False``) unless tracing
    was requested; hot loops read ``enabled`` once and skip every clock
    read when it is false.
    """

    enabled = True

    def __init__(self, labels: Optional[Mapping[str, str]] = None,
                 events: Optional[List[TraceEvent]] = None):
        self.labels: Dict[str, str] = {k: str(v)
                                       for k, v in (labels or {}).items()}
        self.events: List[TraceEvent] = [] if events is None else events

    def now(self) -> float:
        """Clock read for span endpoints (routes through ``obs.clock``)."""
        return clock.perf_counter()

    def emit(self, name: str, t0: float, dur: float, iteration: int = -1,
             count: int = 1) -> None:
        """Record one pre-measured span."""
        self.events.append(
            TraceEvent(name, t0, dur, iteration, count, self.labels))

    @contextmanager
    def span(self, name: str, iteration: int = -1,
             count: int = 1) -> Iterator[None]:
        """Record the enclosed region as one span (coarse phases only —
        per-chunk sites use explicit ``now()``/``emit()`` to keep guarded
        reads out of the disabled path)."""
        t0 = self.now()
        try:
            yield
        finally:
            self.emit(name, t0, self.now() - t0, iteration, count)

    def bind(self, **labels) -> "Tracer":
        """Label-augmented view sharing this tracer's event list."""
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return Tracer(labels=merged, events=self.events)


class _NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op, ``bind`` included."""

    enabled = False

    def emit(self, name, t0, dur, iteration=-1, count=1):  # pragma: no cover
        # Unreachable through correctly guarded call sites; kept total so a
        # stray unguarded emit is silent rather than a crash.
        return None

    @contextmanager
    def span(self, name, iteration=-1, count=1):
        yield

    def bind(self, **labels) -> "Tracer":
        return self


#: Shared disabled tracer; engines default to this so the hot path's only
#: tracing cost is the ``enabled`` branch.
NULL_TRACER: Tracer = _NullTracer()
