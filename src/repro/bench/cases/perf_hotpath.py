"""CI smoke cases tracking the update/sampling hot-path wall time.

These are the only smoke metrics *measured* in wall-clock time rather than
modelled deterministically. They exist because the hot path's scaling
contract — a merge must cost O(batch), never O(graph) (paper
Sec. V-B's cache-friendly discipline applied to the shared NumPy kernel) —
regressed silently once before: the hogwild merge allocated two graph-sized
scratch arrays per 256-term batch, making the default policy ~7× slower than
``accumulate`` on the Chr.1-like graph while every modelled metric stayed
green.

Each timing is a best-of-``repeats`` mean over an inner loop (stable on an
otherwise idle machine) and is recorded with ``deterministic=False``: the
runner's across-repeat byte-identity check skips it, while ``repro bench
compare`` still gates it directionally against the committed baseline. All
sampled inputs come from master-seeded PRNGs so the *workload* being timed is
identical run to run.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ...core import PairSampler, initialize_layout
from ...core.cpu_baseline import CpuBaselineEngine
from ...core.updates import UpdateWorkspace, merge_batch
from ...prng.xoshiro import Xoshiro256Plus, lane_count
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Batch size of the paper's Table III sweet spot and of the regression that
#: motivated these cases (256 terms per hogwild round).
_BATCH = 256

#: One ``chr1-flat`` iteration's uniform megablock: calls x streams.
_DRAW_CALLS = 15808
_DRAW_STREAMS = 64


def _best_ms(fn: Callable[[], object], inner: int, repeats: int = 7,
             warmup: int = 3) -> float:
    """Best mean wall time of ``fn`` in milliseconds over ``repeats`` loops.

    Like ``timeit``, the garbage collector is paused during the timed loops so
    a collection cycle landing inside one repeat cannot masquerade as a
    regression; the min-of-repeats then suppresses scheduler noise.
    """
    import gc

    for _ in range(warmup):
        fn()
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, (time.perf_counter() - t0) / inner)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best * 1e3


@bench_case("perf_apply_batch", source="Sec. V-B (hot path)", suites=("smoke",))
def run_apply_batch(ctx) -> CaseResult:
    """One-segment ``merge_batch`` wall time per merge policy: O(batch), not
    O(graph). ``merge_batch`` is the merge every engine runs per block."""
    graph = ctx.perf_graph
    sampler = PairSampler(graph, ctx.smoke_params)
    rng = Xoshiro256Plus(ctx.seed_for("perf_apply_batch/sample"), n_streams=_BATCH)
    batch = sampler.sample(rng, _BATCH, iteration=0)
    coords = initialize_layout(graph, seed=ctx.seed_for("perf_apply_batch/init")).coords
    # The workspace carries the run's backend (``--backend`` / REPRO_BACKEND)
    # and the coordinate state is moved into its memory space, so these
    # wall times measure whichever merge kernels the run selected.
    backend = ctx.backend
    workspace = UpdateWorkspace(_BATCH, backend=backend)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    collisions = merge_batch(backend.from_host(coords.copy()), batch, 1.0,
                             "hogwild", workspace)
    out.add("point_collisions", collisions, direction="info")
    rows = []
    timings = {}
    for merge in ("hogwild", "accumulate", "last_writer"):
        working = backend.from_host(coords.copy())

        def one_batch(working=working, merge=merge):
            merge_batch(working, batch, 1.0, merge, workspace)

        ms = _best_ms(one_batch, inner=200)
        timings[merge] = ms
        out.add(f"{merge}_ms_per_batch", ms, unit="ms", direction="lower",
                deterministic=False)
        rows.append([merge, f"{ms:.4f}"])
    # Machine-independent scaling guard: the O(N) hogwild bug made the
    # hogwild/accumulate cost ratio ~7, the compacted merge keeps it ~1.
    # Unlike the raw ms metrics (which compare downgrades to warn across
    # timing environments), a dimensionless ratio hard-gates on every
    # machine — including CI runners with a baseline from other hardware.
    # The gated value is floored at 1.5 so benign cross-machine variation
    # of the healthy ~1.0-1.3 band never moves the metric; only a genuine
    # scaling regression (ratio > 1.65 at the 10% threshold) trips it.
    ratio = timings["hogwild"] / max(timings["accumulate"], 1e-9)
    out.add("hogwild_to_accumulate_ratio", ratio, unit="x", direction="info",
            deterministic=False)
    out.add("hogwild_scaling_guard", max(ratio, 1.5), unit="x",
            direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Merge policy", "ms / 256-term batch"], rows,
        title="Smoke: merge_batch hot-path wall time (Chr.1-like)",
    ))
    return out


@bench_case("perf_sampler", source="Alg. 1 l.5-13 (hot path)", suites=("smoke",))
def run_sampler(ctx) -> CaseResult:
    """PairSampler bulk-draw + term-selection wall time per 256-term batch."""
    graph = ctx.perf_graph
    sampler = PairSampler(graph, ctx.smoke_params)
    rng = Xoshiro256Plus(ctx.seed_for("perf_sampler/stream"), n_streams=_BATCH)

    sample_ms = _best_ms(lambda: sampler.sample(rng, _BATCH, iteration=0), inner=150)
    uniforms_ms = _best_ms(lambda: PairSampler._uniforms(rng, _BATCH, 8), inner=150)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("sample_ms_per_batch", sample_ms, unit="ms", direction="lower",
            deterministic=False)
    out.add("uniforms8_ms_per_batch", uniforms_ms, unit="ms", direction="lower",
            deterministic=False)
    out.add("draws_per_sample", 8, direction="info")
    out.tables.append(format_table(
        ["Stage", "ms / 256-term batch"],
        [["sample() end to end", f"{sample_ms:.4f}"],
         ["8-vector uniform block", f"{uniforms_ms:.4f}"]],
        title="Smoke: sampler hot-path wall time (Chr.1-like)",
    ))
    return out


@bench_case("perf_prng_draw", source="Sec. V-B2 (PRNG states)", suites=("smoke",))
def run_prng_draw(ctx) -> CaseResult:
    """Xoshiro256+ bulk draw of one iteration's megablock, per double.

    The block must equal ``next_double()`` called once per row, bytes and
    final state, before anything is recorded. ``prng_lanes`` is the lane
    count the draw picks for this shape: deterministic, and it drops to 1
    (tripping the ``higher`` gate) if the jump-ahead lane path stops
    engaging.
    """
    bulk = Xoshiro256Plus(ctx.seed_for("perf_prng_draw/stream"),
                          n_streams=_DRAW_STREAMS)
    loop = bulk.copy()
    block = bulk.next_double_block(_DRAW_CALLS)
    expected = np.vstack([loop.next_double() for _ in range(_DRAW_CALLS)])
    assert block.tobytes() == expected.tobytes()
    assert np.array_equal(bulk.state, loop.state)

    ms = _best_ms(lambda: bulk.next_double_block(_DRAW_CALLS), inner=1,
                  repeats=7, warmup=1)
    ns_per_draw = ms * 1e6 / (_DRAW_CALLS * _DRAW_STREAMS)
    lanes = lane_count(_DRAW_CALLS, _DRAW_STREAMS)

    out = CaseResult()
    out.add("prng_ns_per_draw", ns_per_draw, unit="ns", direction="lower",
            deterministic=False)
    out.add("prng_lanes", lanes, direction="higher")
    out.tables.append(format_table(
        ["Quantity", "Value"],
        [["block", f"{_DRAW_CALLS:,} calls x {_DRAW_STREAMS} streams"],
         ["lanes", lanes],
         ["ms per block (best)", f"{ms:.2f}"],
         ["ns per draw", f"{ns_per_draw:.1f}"]],
        title="Smoke: Xoshiro256Plus.next_double_block (one chr1-flat iteration)",
    ))
    return out


@bench_case("perf_engine_iteration", source="Alg. 1 (hot path)", suites=("smoke",))
def run_engine_iteration(ctx) -> CaseResult:
    """One full CPU-baseline iteration (draw + merge over all batches)."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=1, simulated_threads=8)
    engine = CpuBaselineEngine(graph, params)

    result_holder = {}

    def one_iteration():
        result_holder["result"] = engine.run()

    ms = _best_ms(one_iteration, inner=1, repeats=6, warmup=2)
    result = result_holder["result"]

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("iteration_ms", ms, unit="ms", direction="lower", deterministic=False)
    out.add("terms_per_iteration", result.total_terms, direction="info")
    out.add("ms_per_kterm", ms / max(result.total_terms / 1000.0, 1e-9),
            unit="ms", direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Metric", "Value"],
        [["iteration wall time", f"{ms:.2f} ms"],
         ["terms per iteration", result.total_terms],
         ["ms per 1k terms", f"{ms / max(result.total_terms / 1000.0, 1e-9):.4f}"]],
        title="Smoke: engine iteration wall time (Chr.1-like @0.1)",
    ))
    return out
