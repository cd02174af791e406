"""CI smoke case gating the tracer's cost and event contract (PR 9).

``perf_trace_overhead`` runs the CPU baseline engine on the Chr.1-like
graph twice from identical state — once with the default disabled tracer,
once with a live in-memory :class:`~repro.obs.tracer.Tracer` — and gates
the observability layer's two promises:

* **byte-identity** — tracing only ever reads the clock and appends
  events; it must never move a sampled term or a coordinate. Asserted
  exactly on the NumPy backend before anything is recorded.
* **event economics** — engines emit per-iteration *aggregates*
  (:data:`_ENGINE_SPANS`: one ``draw``/``dispatch``/``iteration`` trio per
  iteration), never per-term or per-batch events. The
  ``events_per_iteration`` metric pins that contract at exactly 3.0 —
  deterministic and machine-independent, so any change that silently makes
  event volume scale with batch or chunk count fails the gate on every
  machine. (Backend-dependent spans — the fused host path's
  ``selection``/``merge`` — are excluded from the gated count for exactly
  that reason.)

Wall-time overhead is gated like ``perf_apply_batch``'s scaling guard: the
traced/untraced ratio floored at :data:`_RATIO_FLOOR`, so benign noise
around parity never moves the gated value while a tracer that starts
costing real iteration time trips it everywhere (dimensionless ⇒ no
cross-environment downgrade in ``bench compare``).
"""
from __future__ import annotations

import numpy as np

from ...core import CpuBaselineEngine
from ...obs.tracer import Tracer, event_structure
from ..registry import CaseResult, bench_case
from ..tables import format_table
from .perf_fused import _ITER_MAX, _best_run

#: Floor applied to the gated traced/untraced wall-time ratio. The tracer's
#: enabled path costs a handful of clock reads and list appends per
#: iteration — healthy runs sit within noise of 1.0x — so the 10% compare
#: threshold only trips past ~1.38x: tracing grew real per-iteration cost.
_RATIO_FLOOR = 1.25

#: The backend-independent engine span set whose per-iteration volume the
#: ``events_per_iteration`` metric gates (one of each per iteration).
_ENGINE_SPANS = ("draw", "dispatch", "iteration")


@bench_case("perf_trace_overhead", source="repro.obs (run telemetry)",
            suites=("smoke",))
def run_trace_overhead(ctx) -> CaseResult:
    """Tracing must not move a byte, and event volume must stay O(iterations)."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX)

    plain_s, plain = _best_run(lambda: CpuBaselineEngine(graph, params))

    tracers = []

    def traced_factory():
        engine = CpuBaselineEngine(graph, params)
        engine.tracer = Tracer(labels={"engine": engine.name})
        tracers.append(engine.tracer)
        return engine

    traced_s, traced = _best_run(traced_factory)

    # Tracing reads clocks and appends events — nothing else. Byte-identity
    # on the reference backend, the conformance tolerance elsewhere.
    if ctx.backend_name == "numpy":
        assert np.array_equal(traced.layout.coords, plain.layout.coords)
    else:
        np.testing.assert_allclose(traced.layout.coords, plain.layout.coords,
                                    atol=1e-9, rtol=0)
    assert traced.total_terms == plain.total_terms

    # Structure determinism: every traced repeat of the same commit + seed
    # emits the identical timestamp-free event stream.
    structures = {tuple(event_structure(t.events)) for t in tracers}
    assert len(structures) == 1, "traced repeats disagreed on event structure"

    events = tracers[-1].events
    engine_events = sum(1 for e in events
                        if e.name in _ENGINE_SPANS and e.iteration >= 0)
    events_per_iteration = engine_events / float(traced.iterations)
    assert events_per_iteration == float(len(_ENGINE_SPANS))

    ratio = traced_s / max(plain_s, 1e-12)
    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("events_per_iteration", events_per_iteration, direction="lower")
    out.add("total_events", float(len(events)), direction="info")
    out.add("untraced_run_ms", plain_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("traced_run_ms", traced_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("traced_to_untraced_ratio", ratio, unit="x", direction="info",
            deterministic=False)
    out.add("trace_overhead_guard", max(ratio, _RATIO_FLOOR), unit="x",
            direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Variant", "Run wall (ms)", "Events / iteration"],
        [["tracer off", f"{plain_s * 1e3:.1f}", "0"],
         ["tracer on", f"{traced_s * 1e3:.1f}",
          f"{events_per_iteration:.0f}"]],
        title="Smoke: tracer-on vs tracer-off (Chr.1-like @0.1)",
    ))
    return out
