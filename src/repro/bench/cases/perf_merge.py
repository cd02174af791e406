"""CI smoke case gating the hoisted segment merge.

``perf_segment_merge`` runs the CPU baseline engine's fused path on the
Chr.1-like graph. The fused path merges each run of equal-size segments as
one block (:func:`repro.core.fused.block_plan`): point indices, ``d_ref``
weights, μ and every segment's compaction are computed once per block, and
only the coordinate work runs per segment. Before recording anything the
case asserts that the layout equals a ``memory_budget=1`` run, where every
chunk holds one segment and so every block is one segment: byte-identical
on the NumPy backend, within 1e-9 elsewhere. It records:

* ``merge_us_per_segment`` — the fused path's own ``merge`` trace spans
  (prepare + segment loop, per chunk) divided by the segments they
  merged, best of the repeats. Wall time (unit ``us``), so
  ``bench compare`` hard-gates it only within one timing environment.
* ``segments_per_block`` — planned segments per merge block for this
  run's plan. Deterministic and machine-independent (``higher``): it drops
  to 1 if blocks stop forming.
"""
from __future__ import annotations

import numpy as np

from ...core import CpuBaselineEngine
from ...core.fused import block_plan
from ...obs.tracer import Tracer
from ..registry import CaseResult, bench_case
from ..tables import format_table
from .perf_fused import _ITER_MAX, _best_run


@bench_case("perf_segment_merge", source="Sec. V-B (update kernel)",
            suites=("smoke",))
def run_segment_merge(ctx) -> CaseResult:
    """Blocked segment merge: same layout as one-segment blocks, µs/segment."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX)
    tracers = []

    def traced_engine():
        engine = CpuBaselineEngine(graph, params)
        engine.tracer = Tracer(labels={"engine": engine.name})
        tracers.append(engine.tracer)
        return engine

    _, blocked = _best_run(traced_engine)
    single = CpuBaselineEngine(graph, params.with_(memory_budget=1)).run()
    if ctx.backend_name == "numpy":
        assert np.array_equal(blocked.layout.coords, single.layout.coords)
    else:
        np.testing.assert_allclose(blocked.layout.coords, single.layout.coords,
                                   atol=1e-9, rtol=0)
    assert blocked.total_terms == single.total_terms
    assert blocked.counters["fused_iterations"] > 0

    plan = CpuBaselineEngine(graph, params).batch_plan(
        params.steps_per_iteration(graph.total_steps))
    blocks = block_plan(plan)
    segments_per_block = len(plan) / len(blocks)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("segments_per_block", segments_per_block, direction="higher")
    rows = [["segments / iteration", len(plan)],
            ["blocks / iteration", len(blocks)],
            ["segments per block", f"{segments_per_block:.1f}"]]
    per_segment = []
    for tracer in tracers:
        merges = [e for e in tracer.events if e.name == "merge"]
        if merges:  # backends with their own fused kernel emit no merge span
            per_segment.append(sum(e.dur for e in merges)
                               / sum(e.count for e in merges))
    if per_segment:
        us = min(per_segment) * 1e6
        out.add("merge_us_per_segment", us, unit="us", direction="lower",
                deterministic=False)
        rows.append(["merge µs per segment (best)", f"{us:.1f}"])
    out.tables.append(format_table(
        ["Quantity", "Value"], rows,
        title="Smoke: hoisted segment merge (Chr.1-like @0.1)",
    ))
    return out
