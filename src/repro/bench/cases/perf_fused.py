"""CI smoke case gating the fused per-iteration execution path.

``perf_fused_iteration`` runs the CPU baseline engine on the Chr.1-like
graph twice from identical state — once through the classic per-batch loop
(``fused=False``), once through the fused path (one
``backend.run_iteration`` dispatch per iteration over a pre-drawn uniform
megablock) — and gates two things:

* **wall time** — the fused/unfused time ratio, floored at
  :data:`_RATIO_FLOOR` like ``perf_apply_batch``'s scaling guard: the
  healthy ratio sits well under the floor (the fused path removes the
  per-batch interpreter dispatch that motivated the PR), so benign noise
  never moves the gated value, while a fused path regressing toward parity
  trips it on *every* machine (dimensionless ⇒ no cross-environment
  downgrade in ``bench compare``).
* **dispatch count** — ``backend_calls_per_iteration``, the engine's
  update-dispatch counter divided by the iteration count. The fused
  contract is O(1) dispatches per iteration (here exactly 1.0) versus
  O(n_batches) unfused; this is deterministic and machine-independent, so
  any change that silently re-introduces per-batch dispatch fails the gate
  outright.

The two layouts must agree — byte-identical on the NumPy backend, ≤1e-9
elsewhere — which the case asserts before recording anything.
"""
from __future__ import annotations

import time

import numpy as np

from ...core import CpuBaselineEngine
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Floor applied to the gated fused/unfused wall-time ratio. Healthy runs
#: sit far below it (the committed smoke baseline's raw ratio is 0.20); the
#: 10% compare threshold then only trips past ~0.94 — i.e. when fusing
#: genuinely stopped paying for itself.
_RATIO_FLOOR = 0.85

#: Repeats per variant; the best (minimum) wall time is recorded. Each run
#: is ~0.2-0.5 s, so min-of-5 suppresses scheduler noise without blowing the
#: smoke budget.
_REPEATS = 5

#: Iterations per measured run: fewer than the stock smoke schedule — the
#: per-iteration dispatch contrast being measured is identical every
#: iteration, so a shorter run is the same signal with tighter repeats.
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
    """Fused iteration path: faster than per-batch, O(1) backend dispatches."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX)

    unfused_s, unfused = _best_run(
        lambda: CpuBaselineEngine(graph, params.with_(fused=False)))
    fused_s, fused = _best_run(
        lambda: CpuBaselineEngine(graph, params.with_(fused=True)))

    # The execution strategy must not change the optimisation: byte-identity
    # on the reference backend, the conformance tolerance elsewhere.
    if ctx.backend_name == "numpy":
        assert np.array_equal(fused.layout.coords, unfused.layout.coords)
    else:
        np.testing.assert_allclose(fused.layout.coords, unfused.layout.coords,
                                   atol=1e-9, rtol=0)
    assert fused.total_terms == unfused.total_terms
    assert fused.counters.get("fused_iterations", 0.0) > 0.0

    # Machine-independent dispatch tripwire: the fused contract is one
    # backend dispatch per iteration, the unfused loop one per batch.
    fused_calls = fused.counters["update_dispatches"] / fused.iterations
    unfused_calls = unfused.counters["update_dispatches"] / unfused.iterations
    assert fused_calls == 1.0
    assert unfused_calls > 1.0

    ratio = fused_s / max(unfused_s, 1e-12)
    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("backend_calls_per_iteration", fused_calls, direction="lower")
    out.add("unfused_calls_per_iteration", unfused_calls, direction="info")
    out.add("unfused_run_ms", unfused_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("fused_run_ms", fused_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("fused_to_unfused_ratio", ratio, unit="x", direction="info",
            deterministic=False)
    out.add("fused_iteration_guard", max(ratio, _RATIO_FLOOR), unit="x",
            direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Path", "Run wall (ms)", "Dispatches / iteration"],
        [["per-batch loop", f"{unfused_s * 1e3:.1f}", f"{unfused_calls:.0f}"],
         ["fused iteration", f"{fused_s * 1e3:.1f}", f"{fused_calls:.0f}"]],
        title="Smoke: fused vs per-batch iteration (Chr.1-like @0.1)",
    ))
    return out
