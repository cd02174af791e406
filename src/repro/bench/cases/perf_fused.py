"""CI smoke case gating the fused per-iteration execution path.

``perf_fused_iteration`` runs the CPU baseline engine on the Chr.1-like
graph, one ``backend.run_iteration`` dispatch per iteration over a
pre-drawn uniform megablock, and records:

* **dispatch count** — ``backend_calls_per_iteration``, the engine's
  update-dispatch counter divided by the iteration count. The fused
  contract is exactly 1.0 dispatch per unbudgeted iteration; this is
  deterministic and machine-independent, so any change that silently
  re-introduces per-batch dispatch fails the gate outright.
* **wall time** — ``fused_run_ms``, the best of :data:`_REPEATS` runs.
"""
from __future__ import annotations

import time

from ...core import CpuBaselineEngine
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Repeats per measured case; the best (minimum) wall time is recorded. Each
#: run is ~0.1-0.2 s, so min-of-5 suppresses scheduler noise without blowing
#: the smoke budget.
_REPEATS = 5

#: Iterations per measured run: fewer than the stock smoke schedule — the
#: per-iteration work being measured is identical every iteration, so a
#: shorter run is the same signal with tighter repeats.
_ITER_MAX = 4


def _best_run(engine_factory):
    """Best-of-:data:`_REPEATS` wall time (GC paused, like ``_best_ms``)."""
    import gc

    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
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


@bench_case("perf_fused_iteration", source="Sec. V-A (fused iteration)",
            suites=("smoke",))
def run_fused_iteration(ctx) -> CaseResult:
    """Fused iteration path: O(1) backend dispatches per iteration."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX)

    fused_s, fused = _best_run(lambda: CpuBaselineEngine(graph, params))
    assert fused.counters["fused_iterations"] == fused.iterations

    # Machine-independent dispatch tripwire: one backend dispatch per
    # unbudgeted iteration.
    fused_calls = fused.counters["update_dispatches"] / fused.iterations
    assert fused_calls == 1.0

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("backend_calls_per_iteration", fused_calls, direction="lower")
    out.add("fused_run_ms", fused_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.tables.append(format_table(
        ["Path", "Run wall (ms)", "Dispatches / iteration"],
        [["fused iteration", f"{fused_s * 1e3:.1f}", f"{fused_calls:.0f}"]],
        title="Smoke: fused iteration (Chr.1-like @0.1)",
    ))
    return out
