"""``scale`` suite: the chunked fused path's memory ceiling, gated.

``scale_chunked_memory`` runs the CPU baseline engine over the synthetic
10⁶-node / 10⁷-step graph (:func:`repro.synth.scale_graph`) with a
``memory_budget`` far below the whole-iteration transient footprint
(~:data:`~repro.core.fused.FUSED_BYTES_PER_TERM` × 2·10⁶ terms ≈ 768 MB
budgeted down to :data:`_BUDGET_BYTES`) and gates two machine-portable
quantities:

* ``peak_bytes_per_term`` — the tracemalloc-traced peak of the iteration
  loop (measured by the engine's own ``PeakTracker`` piggybacking on the
  case's tracing window) divided by the per-iteration term count. This is
  the number the budget bounds; it is memory, not time, so it is
  hard-gated on every machine (no wall-clock environment downgrade).
* ``ms_per_kterm`` — wall time per thousand update terms from separate
  *untraced* runs (tracemalloc instrumentation would pollute the timing),
  gated like the other wall-time metrics: hard in the same timing
  environment, downgraded to a warning across machines.

Before recording anything the case asserts the tentpole claims outright:
the budget produced multiple chunks, the traced peak stayed *under* the
budget, and the budgeted layout is byte-identical to an unbudgeted run of
the same parameters.
"""
from __future__ import annotations

import time

import numpy as np

from ...core import CpuBaselineEngine
from ...memtrack import PeakTracker
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: The budget under test: ~12 chunks per iteration on the scale graph,
#: an order of magnitude under the unchunked transient footprint.
_BUDGET_BYTES = 64 * 2**20

#: Untraced timing repeats; the best (minimum) wall time is recorded.
_TIMING_REPEATS = 2


def _timed_run(engine_factory):
    """Best-of-:data:`_TIMING_REPEATS` wall time with GC paused."""
    import gc

    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_TIMING_REPEATS):
            engine = engine_factory()
            t0 = time.perf_counter()
            candidate = engine.run()
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
            result = candidate
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, result


@bench_case("scale_chunked_memory", source="Sec. V-A (memory ceiling)",
            suites=("scale",))
def run_scale_chunked(ctx) -> CaseResult:
    """Budget-bounded fused chunks at 10⁶ nodes: peak memory gated like time."""
    graph = ctx.scale_graph
    params = ctx.scale_params.with_(memory_budget=_BUDGET_BYTES)

    # Untraced wall-time measurement (and the budgeted layout used for the
    # identity check below).
    budgeted_s, budgeted = _timed_run(lambda: CpuBaselineEngine(graph, params))

    # One unbudgeted run: the execution strategy must not change the
    # optimisation, whatever the budget.
    unbudgeted = CpuBaselineEngine(graph, params.with_(memory_budget=None)).run()
    assert np.array_equal(budgeted.layout.coords, unbudgeted.layout.coords)
    assert budgeted.total_terms == unbudgeted.total_terms
    assert unbudgeted.counters["fused_chunks"] == 1.0

    # Traced run: the engine's PeakTracker piggybacks on the tracing window
    # and narrows the traced peak to the iteration loop.
    with PeakTracker(trace=True):
        traced_run = CpuBaselineEngine(graph, params).run()
    traced_peak = traced_run.counters.get("traced_peak_bytes")
    assert traced_peak is not None and traced_peak > 0
    n_chunks = traced_run.counters["fused_chunks"]
    assert n_chunks > 1  # the budget must actually bind at this scale
    # The tentpole claim, asserted outright: per-iteration transients stay
    # under the requested ceiling (FUSED_BYTES_PER_TERM is conservative).
    assert traced_peak <= _BUDGET_BYTES

    terms_per_iteration = traced_run.total_terms / traced_run.iterations
    peak_per_term = traced_peak / terms_per_iteration
    ms_per_kterm = budgeted_s * 1e3 / (budgeted.total_terms / 1e3)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("peak_bytes_per_term", peak_per_term, unit="B/term",
            direction="lower", deterministic=False)
    out.add("ms_per_kterm", ms_per_kterm, unit="ms", direction="lower",
            deterministic=False)
    out.add("fused_chunks_per_iteration", n_chunks, direction="info")
    out.add("memory_budget_bytes", float(_BUDGET_BYTES), unit="B",
            direction="info")
    out.add("traced_peak_bytes", float(traced_peak), unit="B",
            direction="info", deterministic=False)
    out.add("budget_utilization", traced_peak / _BUDGET_BYTES, unit="x",
            direction="info", deterministic=False)
    rss = traced_run.counters.get("peak_rss_bytes")
    if rss is not None:
        out.add("peak_rss_bytes", float(rss), unit="B", direction="info",
                deterministic=False)
    out.tables.append(format_table(
        ["Quantity", "Value"],
        [["nodes / steps", f"{graph.n_nodes:,} / {graph.total_steps:,}"],
         ["terms per iteration", f"{terms_per_iteration:,.0f}"],
         ["memory budget", f"{_BUDGET_BYTES / 2**20:.0f} MiB"],
         ["chunks per iteration", f"{n_chunks:.0f}"],
         ["traced peak", f"{traced_peak / 2**20:.1f} MiB"],
         ["peak bytes/term", f"{peak_per_term:.1f}"],
         ["wall per kterm", f"{ms_per_kterm:.3f} ms"]],
        title="Scale: chunked fused path under a 64 MiB budget (10⁶ nodes)",
    ))
    return out
