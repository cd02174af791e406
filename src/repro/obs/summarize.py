"""Phase-attributed trace reports (``repro trace summarize/compare``).

The interpreter analogue of the paper's Table IV kernel breakdown: given a
trace file, attribute recorded time to phases (selection, merge, dispatch,
schedule, ...) and render where a run actually spent itself — the question
every perf regression investigation starts with. ``compare`` diffs two
traces phase by phase, the reading-a-trace counterpart of
``repro bench compare``.

Attribution uses the *leaf* phases, not the enclosing ``iteration``/
``level`` spans: nested spans overlap by construction, so summing every
span would double-count. The enclosing spans are reported as their own
rows but excluded from the share denominator. ``dispatch`` is a leaf with
children of its own: on the host fused path it encloses the ``selection``
and ``merge`` spans emitted for the same iteration and labels, so it is
reported by its self time, with those spans subtracted.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .trace_file import TraceDoc
from .tracer import TraceEvent

__all__ = ["phase_breakdown", "render_summary", "render_compare"]

#: Spans that *enclose* other spans; excluded from the share denominator.
ENCLOSING_SPANS = ("iteration", "level")

#: Spans a ``dispatch`` span with the same iteration and labels encloses.
DISPATCH_CHILDREN = ("selection", "merge")


def _span_key(event: TraceEvent) -> Tuple[int, Tuple[Tuple[str, str], ...]]:
    return event.iteration, tuple(sorted(event.labels.items()))


def phase_breakdown(events: Sequence[TraceEvent]
                    ) -> Dict[str, Tuple[int, int, float]]:
    """Per-phase ``(events, units, total_seconds)`` in first-seen order.

    ``dispatch`` totals its self time: the duration of the
    :data:`DISPATCH_CHILDREN` events that share a dispatch event's
    iteration and labels is subtracted from it.
    """
    out: Dict[str, Tuple[int, int, float]] = {}
    for event in events:
        n_events, units, total = out.get(event.name, (0, 0, 0.0))
        out[event.name] = (n_events + 1, units + int(event.count),
                           total + float(event.dur))
    if "dispatch" in out:
        keys = {_span_key(e) for e in events if e.name == "dispatch"}
        nested = sum(float(e.dur) for e in events
                     if e.name in DISPATCH_CHILDREN and _span_key(e) in keys)
        n_events, units, total = out["dispatch"]
        out["dispatch"] = (n_events, units, total - nested)
    return out


def _format_rows(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    def line(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) if i == 0 else
                         cell.rjust(widths[i]) for i, cell in enumerate(cells))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(r) for r in rows])


def _workers_in(events: Sequence[TraceEvent]) -> List[str]:
    return sorted({e.labels["worker"] for e in events if "worker" in e.labels})


def render_summary(doc: TraceDoc, source: Optional[str] = None) -> str:
    """Human-readable per-phase breakdown of one trace."""
    breakdown = phase_breakdown(doc.events)
    leaf_total = sum(total for name, (_, _, total) in breakdown.items()
                     if name not in ENCLOSING_SPANS)
    rows: List[List[str]] = []
    ordered = sorted(breakdown.items(), key=lambda kv: -kv[1][2])
    for name, (n_events, units, total) in ordered:
        share = (f"{100.0 * total / leaf_total:.1f}%"
                 if leaf_total > 0 and name not in ENCLOSING_SPANS else "-")
        rows.append([name, str(n_events), str(units),
                     f"{total * 1e3:.2f}", share])
    meta = doc.meta
    head = [f"trace{f' {source}' if source else ''}: "
            f"schema {doc.schema_version}, {len(doc.events)} event(s)"
            + (f", {doc.dropped} dropped" if doc.dropped else "")]
    described = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
    if described:
        head.append(f"meta: {described}")
    workers = _workers_in(doc.events)
    if workers:
        head.append(f"workers: {', '.join(workers)}")
    table = _format_rows(["phase", "events", "units", "total ms", "share"],
                         rows)
    return "\n".join(head + [table])


def render_compare(old: TraceDoc, new: TraceDoc) -> str:
    """Phase-by-phase diff of two traces (old -> new)."""
    old_phases = phase_breakdown(old.events)
    new_phases = phase_breakdown(new.events)
    names = list(old_phases)
    names.extend(n for n in new_phases if n not in old_phases)
    rows: List[List[str]] = []
    for name in sorted(names, key=lambda n: -(new_phases.get(n, (0, 0, 0.0))[2]
                                              or old_phases.get(n, (0, 0, 0.0))[2])):
        old_s = old_phases.get(name, (0, 0, 0.0))[2]
        new_s = new_phases.get(name, (0, 0, 0.0))[2]
        ratio = f"{new_s / old_s:.2f}x" if old_s > 0 else "-"
        rows.append([name, f"{old_s * 1e3:.2f}", f"{new_s * 1e3:.2f}", ratio])
    old_total = sum(t for n, (_, _, t) in old_phases.items()
                    if n not in ENCLOSING_SPANS)
    new_total = sum(t for n, (_, _, t) in new_phases.items()
                    if n not in ENCLOSING_SPANS)
    total_ratio = (f"{new_total / old_total:.2f}x" if old_total > 0 else "-")
    head = (f"trace compare: {len(old.events)} -> {len(new.events)} event(s), "
            f"leaf total {old_total * 1e3:.2f} -> {new_total * 1e3:.2f} ms "
            f"({total_ratio})")
    table = _format_rows(["phase", "old ms", "new ms", "ratio"], rows)
    return "\n".join([head, table])
