"""CI smoke case gating the process-parallel shared-memory engine.

``perf_parallel_scaling`` runs the Chr.1-like smoke workload twice — flat
:class:`~repro.core.cpu_baseline.CpuBaselineEngine` versus
:class:`~repro.parallel.shm.ShmHogwildEngine` with two workers — and gates
the measured parallel path with figures that hold on every machine:

* **speedup-per-worker guard** — the shm iteration time (the engine's
  ``parallel_iterate_s`` counter, which excludes process spawn/attach
  setup) over the flat time scaled by the *locally available* parallelism
  ``min(workers, cpu_count)``. The ratio is dimensionless and normalised by
  the machine's own core count, so the committed baseline gates every
  machine: on a single-core box the ideal is the flat time itself (the
  guard then bounds pure orchestration overhead), on a multi-core box it
  is ``flat / workers``. Healthy values sit well under the
  :data:`_RATIO_FLOOR` the guard is floored at; a parallel path whose
  overhead swamps its speedup trips the gate everywhere.
* **measured-vs-modelled collisions** — the empirical colliding-point
  fraction at the engine's round concurrency
  (:func:`~repro.parallel.hogwild.measure_collisions`) next to the analytic
  :func:`~repro.parallel.hogwild.expected_collision_probability`. Both are
  deterministic (they depend only on sampled indices, never on the store
  race), so any drift in the sampler or the collision model fails the
  determinism check outright.

Before recording anything the case asserts the acceptance-bar invariant:
a ``workers=1`` shm run — through the real process/shared-memory machinery —
is byte-identical to the flat engine.
"""
from __future__ import annotations

import os

import numpy as np

from ...core import CpuBaselineEngine
from ...core.fused import slice_plan
from ...parallel.hogwild import expected_collision_probability, measure_collisions
from ...parallel.shm import ShmHogwildEngine
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Floor applied to the gated iterate-time / per-core-ideal ratio. Healthy
#: runs sit near 1.0-1.4 (orchestration overhead only); the 10% compare
#: threshold then only trips past ~2.0 — parallelism costing twice its
#: locally achievable ideal.
_RATIO_FLOOR = 1.8

#: Worker processes for the parallel variant.
_WORKERS = 2

#: Repeats per variant; best (minimum) wall time is recorded.
_REPEATS = 3

#: Iterations per measured run (the per-iteration contrast is identical
#: every iteration; short runs tighten the repeats).
_ITER_MAX = 4


def _best_run(engine_factory, elapsed_of):
    """Best-of-:data:`_REPEATS` elapsed time per ``elapsed_of(result)``."""
    import gc

    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            candidate = engine_factory().run()
            elapsed = elapsed_of(candidate)
            if elapsed < best:
                best = elapsed
            result = candidate
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, result


@bench_case("perf_parallel_scaling", source="Fig. 4 (measured, shm workers)",
            suites=("smoke",))
def run_parallel_scaling(ctx) -> CaseResult:
    """Process-parallel hogwild: bounded overhead, collisions match the model."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX)

    flat_s, flat = _best_run(lambda: CpuBaselineEngine(graph, params),
                             lambda r: r.wall_time_s)

    # Acceptance-bar invariant: one worker through the real process +
    # shared-memory machinery reproduces the flat engine bit for bit.
    one = ShmHogwildEngine(graph, params.with_(workers=1)).run()
    assert np.array_equal(one.layout.coords, flat.layout.coords)
    assert one.total_terms == flat.total_terms

    par_s, par = _best_run(
        lambda: ShmHogwildEngine(graph, params.with_(workers=_WORKERS)),
        lambda r: r.counters["parallel_iterate_s"])
    assert par.total_terms == flat.total_terms
    assert par.counters["effective_workers"] == float(_WORKERS)

    # Normalise by the parallelism this machine can actually deliver, so the
    # committed baseline is meaningful on any core count.
    local_ideal = flat_s / min(_WORKERS, os.cpu_count() or 1)
    ratio = par_s / max(local_ideal, 1e-12)
    speedup_per_worker = flat_s / max(par_s, 1e-12) / _WORKERS

    # Deterministic worker-balance check straight off the plan slicing.
    engine = ShmHogwildEngine(graph, params.with_(workers=_WORKERS))
    plan = engine.batch_plan(params.steps_per_iteration(graph.total_steps))
    shares = [sum(p) for p in slice_plan(plan, _WORKERS)]
    share_ratio = max(shares) / max(min(shares), 1)

    # Measured vs modelled collision probability at the round concurrency.
    concurrency = params.simulated_threads * engine.hogwild_round
    report = measure_collisions(graph, concurrency, n_batches=8,
                                params=params,
                                seed=ctx.seed_for("perf_parallel/collisions"))
    expected = expected_collision_probability(graph.n_nodes, concurrency)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("worker_share_ratio", share_ratio, unit="x", direction="lower")
    out.add("measured_collision_fraction", report.mean_colliding_fraction,
            direction="info")
    out.add("modelled_collision_fraction", expected, direction="info")
    out.add("collision_model_ratio",
            report.mean_colliding_fraction / max(expected, 1e-12),
            unit="x", direction="info")
    out.add("flat_run_ms", flat_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("parallel_iterate_ms", par_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("parallel_setup_ms", par.counters["parallel_setup_s"] * 1e3,
            unit="ms", direction="info", deterministic=False)
    out.add("parallel_speedup_per_worker", speedup_per_worker, unit="x",
            direction="info", deterministic=False)
    out.add("parallel_scaling_guard", max(ratio, _RATIO_FLOOR), unit="x",
            direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Path", "Wall (ms)", "Workers", "Collision fraction"],
        [["flat cpu-baseline", f"{flat_s * 1e3:.1f}", "1",
          f"{expected:.4f} (model)"],
         [f"shm hogwild ×{_WORKERS}", f"{par_s * 1e3:.1f}", str(_WORKERS),
          f"{report.mean_colliding_fraction:.4f} (measured)"]],
        title="Smoke: measured process-parallel hogwild (Chr.1-like @0.1)",
    ))
    return out
