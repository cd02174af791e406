"""Chunked fused path (PR 8): budget parsing, chunk planning, byte-identity.

The tentpole contract under test: ``LayoutParams(memory_budget=...)`` splits
each fused iteration into budget-sized segment chunks dispatched in order,
and — because chunk boundaries are segment boundaries and the bulk PRNG draw
is interchangeable mid-stream — a budgeted run is *byte-identical* to an
unbudgeted one on the NumPy backend, for every budget. Alongside: the
``parse_memory_budget`` grammar, the params-level ``workers × levels``
validation, the chunk-shared draws buffer (one chunk wide, not one
iteration wide), ``budget_share`` for the process-parallel engine, the peak
accounting layer (``repro.memtrack`` + ``LayoutResult.summary``), and the
CLI ``--memory-budget`` flag end to end.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core import CpuBaselineEngine, LayoutParams, SerialReferenceEngine
from repro.core.fused import (
    FUSED_BYTES_PER_TERM,
    build_iteration_plans,
    chunk_spans,
)
from repro.core.params import parse_memory_budget
from repro.core.selection import SAMPLE_VECTORS, DrawRecipe
from repro.memtrack import PeakTracker, max_rss_bytes
from repro.parallel.shm import budget_share, run_workers_inline
from repro.synth import PangenomeConfig, simulate_pangenome


@pytest.fixture(scope="module")
def small_graph():
    return simulate_pangenome(PangenomeConfig(
        n_backbone_nodes=50,
        n_paths=3,
        mean_node_length=5.0,
        bubble_rate=0.1,
        deletion_rate=0.02,
        n_structural_variants=1,
        sv_length_nodes=4,
        loop_rate=0.05,
        seed=11,
        name="chunked-fused",
    ))


def _params(**overrides) -> LayoutParams:
    base = dict(iter_max=3, steps_per_step_unit=1.0, seed=23, backend="numpy")
    base.update(overrides)
    return LayoutParams(**base)


# --------------------------------------------------------------------------
# parse_memory_budget
# --------------------------------------------------------------------------
class TestParseMemoryBudget:
    def test_none_passthrough(self):
        assert parse_memory_budget(None) is None

    def test_plain_int(self):
        assert parse_memory_budget(4096) == 4096

    @pytest.mark.parametrize("text,expected", [
        ("512", 512),
        ("512B", 512),
        ("1K", 1024),
        ("1KB", 1024),
        ("1KiB", 1024),
        ("64MB", 64 * 1024**2),
        ("64mb", 64 * 1024**2),
        ("2G", 2 * 1024**3),
        ("1T", 1024**4),
        (" 8 MB ", 8 * 1024**2),
        ("1.5KB", 1536),
    ])
    def test_unit_grammar(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "MB", "64XB", "-1", "1..5K", "64 M B"])
    def test_malformed_strings_raise(self, bad):
        with pytest.raises(ValueError):
            parse_memory_budget(bad)

    @pytest.mark.parametrize("bad", [0, -5, "0", "0.4"])
    def test_sub_byte_budgets_raise(self, bad):
        with pytest.raises(ValueError):
            parse_memory_budget(bad)

    def test_bool_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            parse_memory_budget(True)

    def test_params_normalise_budget_string(self):
        params = _params(memory_budget="2MB")
        assert params.memory_budget == 2 * 1024**2

    def test_params_reject_bad_budget(self):
        with pytest.raises(ValueError):
            _params(memory_budget="lots")


# --------------------------------------------------------------------------
# params-level validation (satellite: workers × levels)
# --------------------------------------------------------------------------
class TestWorkersLevelsValidation:
    def test_combination_rejected_in_params(self):
        with pytest.raises(ValueError, match="workers > 1 and levels > 1"):
            _params(workers=2, levels=2)

    def test_each_knob_alone_is_fine(self):
        assert _params(workers=2).workers == 2
        assert _params(levels=2).levels == 2


# --------------------------------------------------------------------------
# chunk_spans
# --------------------------------------------------------------------------
class TestChunkSpans:
    def test_empty_plan(self):
        assert chunk_spans([], memory_budget=100) == []

    def test_no_budget_single_span(self):
        assert chunk_spans([5, 5, 5]) == [(0, 3)]

    def test_bad_budget_raises(self):
        with pytest.raises(ValueError):
            chunk_spans([4], memory_budget=0)
        with pytest.raises(ValueError):
            chunk_spans([4], memory_budget=100, bytes_per_term=0)

    def test_spans_cover_plan_contiguously(self):
        plan = [7, 7, 7, 7, 3]
        spans = chunk_spans(plan, memory_budget=14 * FUSED_BYTES_PER_TERM)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(plan)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_greedy_packing_respects_target(self):
        plan = [4, 4, 4, 4]
        spans = chunk_spans(plan, memory_budget=8 * FUSED_BYTES_PER_TERM)
        assert spans == [(0, 2), (2, 4)]

    def test_budget_below_one_segment_degrades_to_one_per_chunk(self):
        plan = [10, 10, 10]
        spans = chunk_spans(plan, memory_budget=1)
        assert spans == [(0, 1), (1, 2), (2, 3)]

    def test_budget_covering_everything_single_span(self):
        plan = [4, 4, 4]
        spans = chunk_spans(plan, memory_budget=12 * FUSED_BYTES_PER_TERM)
        assert spans == [(0, 3)]

    def test_segments_priced_by_their_megablock_rows(self):
        """A 544-term GPU-model wave on 4,096 streams draws 9 full rows:
        its megablock, not its term count, dominates its cost."""
        recipe = DrawRecipe(warp=32)
        megablock = 8 * 4096 * recipe.segment_calls(544, 4096)
        seg_cost = megablock + (FUSED_BYTES_PER_TERM - 8 * SAMPLE_VECTORS) * 544
        assert megablock == 8 * 4096 * 9
        spans = chunk_spans([544] * 4, memory_budget=2 * seg_cost,
                            n_streams=4096, recipe=recipe)
        assert spans == [(0, 2), (2, 4)]
        # Priced per term, the same budget would have held all four waves.
        assert 4 * 544 * FUSED_BYTES_PER_TERM <= 2 * seg_cost

    def test_one_stream_stock_cost_is_bytes_per_term(self):
        plan = [7, 7, 7, 7, 3]
        budget = 14 * FUSED_BYTES_PER_TERM
        assert (chunk_spans(plan, budget, n_streams=1)
                == chunk_spans(plan, budget) == [(0, 2), (2, 4), (4, 5)])

    def test_reuse_prices_the_expanded_terms(self):
        rest = FUSED_BYTES_PER_TERM - 8 * SAMPLE_VECTORS
        recipe = DrawRecipe(warp=4, warp_paths=True, reuse=2)
        seg_cost = 8 * recipe.segment_calls(8, 1) + 2 * rest * 8
        spans = chunk_spans([8, 8, 8], memory_budget=2 * seg_cost,
                            recipe=recipe)
        assert spans == [(0, 2), (2, 3)]


# --------------------------------------------------------------------------
# build_iteration_plans: chunk plans + shared draws buffer
# --------------------------------------------------------------------------
class TestBuildIterationPlans:
    def _plans(self, graph, budget):
        engine = CpuBaselineEngine(graph, _params(memory_budget=budget))
        plan = engine.batch_plan(
            engine.params.steps_per_iteration(graph.total_steps))
        rng = engine.make_rng()
        workspace = engine.make_workspace(plan)
        return plan, build_iteration_plans(
            sampler=engine.sampler, workspace=workspace,
            merge=engine.merge_policy(), plan=plan, n_streams=rng.n_streams,
            memory_budget=engine.params.memory_budget)

    def test_unbudgeted_is_single_whole_plan(self, small_graph):
        plan, chunks = self._plans(small_graph, None)
        assert len(chunks) == 1
        assert chunks[0].plan == plan

    def test_chunks_concatenate_to_plan(self, small_graph):
        plan, chunks = self._plans(small_graph, 1)
        assert len(chunks) == len(plan)
        flattened = [b for c in chunks for b in c.plan]
        assert flattened == plan

    def test_chunks_share_scratch_but_own_caches(self, small_graph):
        _, chunks = self._plans(small_graph, 1)
        assert len(chunks) > 1
        # Chunk-invariant state lives once per run: one draws buffer, one
        # workspace.
        assert len({id(c.draws) for c in chunks}) == 1
        assert len({id(c.workspace) for c in chunks}) == 1
        # Chunk-shaped bookkeeping stays private to each plan.
        assert len({id(c.need_calls) for c in chunks}) == len(chunks)

    def test_draws_scratch_totals_one_chunk_not_iteration(self, small_graph):
        """The hoisted draws buffer must not re-materialise the iteration."""
        from repro.core.fused import run_iteration_host

        engine = CpuBaselineEngine(small_graph,
                                   _params(memory_budget="2KB"))
        plan = engine.batch_plan(
            engine.params.steps_per_iteration(small_graph.total_steps))
        rng = engine.make_rng()
        chunks = build_iteration_plans(
            sampler=engine.sampler, workspace=engine.make_workspace(plan),
            merge=engine.merge_policy(), plan=plan, n_streams=rng.n_streams,
            memory_budget=engine.params.memory_budget)
        assert len(chunks) > 1
        backend = get_backend("numpy")
        coords = np.zeros((small_graph.n_nodes * 2, 2), dtype=np.float64)
        draws = chunks[0].draws
        widest = max(sum(c.plan) for c in chunks)
        assert draws.shape == (SAMPLE_VECTORS, widest)
        assert widest < sum(plan)
        for chunk in chunks:
            block = rng.next_double_block(chunk.calls_per_iteration)
            run_iteration_host(backend, chunk, coords, block, 0.05, 0)
            # No chunk swapped in a private copy of the draws block.
            assert chunk.draws is draws


# --------------------------------------------------------------------------
# byte-identity: budgeted == unbudgeted, every budget (example-based)
# --------------------------------------------------------------------------
class TestBudgetByteIdentity:
    @pytest.mark.parametrize("budget", [1, "1KB", "100KB", "64MB"])
    def test_cpu_engine_budget_never_moves_layout(self, small_graph, budget):
        params = _params()
        reference = CpuBaselineEngine(small_graph, params).run()
        budgeted = CpuBaselineEngine(
            small_graph, params.with_(memory_budget=budget)).run()
        assert budgeted.total_terms == reference.total_terms
        np.testing.assert_array_equal(budgeted.layout.coords,
                                      reference.layout.coords)

    def test_serial_engine_one_term_segments_chunk_identically(self, small_graph):
        params = _params(iter_max=2)
        reference = SerialReferenceEngine(small_graph, params).run()
        budgeted = SerialReferenceEngine(
            small_graph, params.with_(memory_budget=1)).run()
        np.testing.assert_array_equal(budgeted.layout.coords,
                                      reference.layout.coords)

    def test_unbudgeted_keeps_one_dispatch_per_iteration(self, small_graph):
        result = CpuBaselineEngine(small_graph, _params()).run()
        assert result.counters["fused_chunks"] == 1.0
        assert (result.counters["update_dispatches"]
                == float(result.iterations))

    def test_budgeted_dispatches_once_per_chunk(self, small_graph):
        result = CpuBaselineEngine(
            small_graph, _params(memory_budget=1)).run()
        chunks = result.counters["fused_chunks"]
        assert chunks > 1.0
        assert (result.counters["update_dispatches"]
                == chunks * result.iterations)


@pytest.fixture(scope="module")
def fig17_gpu_run():
    """The GPU model on the Fig. 17 Chr.1-like graph (2,303 nodes) with
    ``quality_bench_params``: 544-term waves on 4,096 streams, whose
    megablock rows cost ~540 B per term. Two iterations cover both
    selection phases; every iteration has the same transient footprint.
    Returns the graph, the params and the unbudgeted run."""
    from repro.bench.context import BenchContext
    from repro.core import OptimizedGpuEngine

    ctx = BenchContext()
    params = ctx.quality_bench_params.with_(iter_max=2)
    return ctx.chr1_graph, params, OptimizedGpuEngine(ctx.chr1_graph,
                                                      params).run()


class TestGpuModelBudget:
    @pytest.mark.parametrize("budget", ["64MB", "16MB"])
    def test_wide_stream_waves_split_and_stay_within_budget(
            self, fig17_gpu_run, budget):
        """Budgeted runs split into chunks, their traced peak stays within
        the budget (one chunk's megablock in flight at a time), and their
        layout is the unbudgeted run's."""
        from repro.core import OptimizedGpuEngine

        graph, params, reference = fig17_gpu_run
        with PeakTracker(trace=True) as mem:
            budgeted = OptimizedGpuEngine(
                graph, params.with_(memory_budget=budget)).run()
        assert budgeted.counters["fused_chunks"] > 1
        assert mem.traced_peak_bytes <= parse_memory_budget(budget)
        assert (budgeted.layout.coords.tobytes()
                == reference.layout.coords.tobytes())
        assert budgeted.total_terms == reference.total_terms


# --------------------------------------------------------------------------
# worker decomposition: budget_share + inline engine
# --------------------------------------------------------------------------
class TestWorkerBudget:
    def test_budget_share_none_passthrough(self):
        assert budget_share(None, 4) is None

    def test_budget_share_splits_evenly_with_floor(self):
        assert budget_share(100, 4) == 25
        assert budget_share(3, 4) == 1  # floors at one byte, never zero

    def test_budget_share_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            budget_share(100, 0)

    def test_inline_workers_budget_never_moves_layout(self, small_graph):
        params = _params(workers=2)
        reference = run_workers_inline(small_graph, params)
        budgeted = run_workers_inline(
            small_graph, params.with_(memory_budget="4KB"))
        np.testing.assert_array_equal(budgeted.layout.coords,
                                      reference.layout.coords)

    def test_inline_workers_budget_raises_chunk_count(self, small_graph):
        params = _params(workers=2)
        reference = run_workers_inline(small_graph, params)
        budgeted = run_workers_inline(
            small_graph, params.with_(memory_budget=1))
        assert (budgeted.counters["fused_chunks"]
                > reference.counters["fused_chunks"])


# --------------------------------------------------------------------------
# peak accounting: memtrack + counters + summary
# --------------------------------------------------------------------------
class TestPeakAccounting:
    def test_max_rss_is_positive_on_posix(self):
        rss = max_rss_bytes()
        if rss is not None:
            assert rss > 1024**2  # a Python process is bigger than a MiB

    def test_tracker_without_tracing_reports_rss_only(self):
        tracker = PeakTracker(trace=None).start()
        tracker.stop()
        assert tracker.traced_peak_bytes is None
        if tracker.rss_peak_bytes is not None:
            assert tracker.rss_peak_bytes > 0

    def test_tracker_traces_when_asked(self):
        with PeakTracker(trace=True) as tracker:
            buf = np.ones(200_000, dtype=np.float64)
            del buf
        assert tracker.traced_peak_bytes is not None
        assert tracker.traced_peak_bytes >= 200_000 * 8

    def test_engine_records_traced_peak_under_external_tracing(self, small_graph):
        with PeakTracker(trace=True):
            result = CpuBaselineEngine(
                small_graph, _params(memory_budget="1KB")).run()
        assert result.counters.get("traced_peak_bytes", 0) > 0
        summary = result.summary()
        assert summary["traced_peak_bytes"] == int(
            result.counters["traced_peak_bytes"])
        assert summary["fused_chunks"] > 1

    def test_engine_without_tracing_omits_traced_counter(self, small_graph):
        result = CpuBaselineEngine(small_graph, _params()).run()
        assert "traced_peak_bytes" not in result.counters
        assert result.summary()["traced_peak_bytes"] is None

    def test_max_counter_keeps_high_water(self, small_graph):
        engine = CpuBaselineEngine(small_graph, _params())
        engine.max_counter("hw", 5.0)
        engine.max_counter("hw", 3.0)
        engine.max_counter("hw", 9.0)
        assert engine.metrics.counter_values()["hw"] == 9.0


# --------------------------------------------------------------------------
# CLI: --memory-budget end to end (the acceptance criterion)
# --------------------------------------------------------------------------
class TestCliMemoryBudget:
    def test_layout_budget_byte_identical_lay_files(self, tmp_path):
        from repro.cli import main

        blobs = {}
        for name, extra in (("none", []),
                            ("64mb", ["--memory-budget", "64MB"]),
                            ("100kb", ["--memory-budget", "100KB"])):
            out = tmp_path / f"{name}.lay"
            assert main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                         "--iter-max", "2", "--steps-factor", "1.0",
                         *extra, "--out-lay", str(out)]) == 0
            blobs[name] = out.read_bytes()
        assert blobs["none"] == blobs["64mb"] == blobs["100kb"]

    def test_layout_rejects_malformed_budget(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="invalid memory budget"):
            main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                  "--iter-max", "1", "--memory-budget", "banana"])
