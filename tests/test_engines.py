"""Integration tests for the layout engines and the public API."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchedLayoutEngine,
    CpuBaselineEngine,
    GpuKernelConfig,
    LayoutParams,
    OptimizedGpuEngine,
    SerialReferenceEngine,
    layout_graph,
    make_engine,
)
from repro.core.fused import draw_segment
from repro.core.layout import Layout, NodeDataLayout
from repro.metrics import sampled_path_stress
from repro.parallel.shm import run_workers_inline


def _scrambled_layout(graph, seed=0, span=1000.0):
    rng = np.random.default_rng(seed)
    return Layout(rng.uniform(0.0, span, size=(2 * graph.n_nodes, 2)))


class TestEngineFactory:
    def test_all_engine_names(self, small_synthetic, fast_params):
        for name, cls in [
            ("cpu", CpuBaselineEngine),
            ("serial", SerialReferenceEngine),
            ("batch", BatchedLayoutEngine),
            ("gpu", OptimizedGpuEngine),
            ("gpu-base", OptimizedGpuEngine),
        ]:
            engine = make_engine(small_synthetic, name, fast_params)
            assert isinstance(engine, cls)

    def test_unknown_engine(self, small_synthetic):
        with pytest.raises(ValueError):
            make_engine(small_synthetic, "tpu")

    def test_accepts_variation_graph(self, fig1_graph, fast_params):
        engine = make_engine(fig1_graph, "cpu", fast_params)
        assert engine.graph.n_nodes == 8

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            make_engine([1, 2, 3], "cpu")

    def test_gpu_base_has_no_optimisations(self, small_synthetic, fast_params):
        engine = make_engine(small_synthetic, "gpu-base", fast_params)
        assert not engine.config.cache_friendly_layout
        assert not engine.config.coalesced_random_states
        assert not engine.config.warp_merging


class TestLayoutRuns:
    def test_layout_graph_shapes(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, engine="cpu", params=fast_params)
        assert result.layout.coords.shape == (2 * small_synthetic.n_nodes, 2)
        assert result.engine == "cpu-baseline"
        assert result.iterations == fast_params.iter_max
        assert result.total_terms > 0
        assert np.all(np.isfinite(result.layout.coords))

    def test_cpu_reduces_stress_from_scrambled(self, small_synthetic, quality_params):
        scrambled = _scrambled_layout(small_synthetic)
        before = sampled_path_stress(scrambled, small_synthetic, samples_per_step=15).value
        engine = CpuBaselineEngine(small_synthetic, quality_params)
        result = engine.run(initial=scrambled)
        after = sampled_path_stress(result.layout, small_synthetic, samples_per_step=15).value
        assert after < before / 10

    def test_gpu_matches_cpu_quality(self, small_synthetic, quality_params):
        scrambled = _scrambled_layout(small_synthetic)
        cpu = CpuBaselineEngine(small_synthetic, quality_params).run(initial=scrambled)
        gpu = OptimizedGpuEngine(small_synthetic, quality_params).run(initial=scrambled)
        s_cpu = sampled_path_stress(cpu.layout, small_synthetic, samples_per_step=15).value
        s_gpu = sampled_path_stress(gpu.layout, small_synthetic, samples_per_step=15).value
        # Paper Table VIII: GPU/CPU sampled-path-stress ratio close to 1;
        # allow a generous band at this tiny scale.
        assert s_gpu < 5 * max(s_cpu, 1e-3)

    def test_serial_reference_runs(self, tiny_graph):
        params = LayoutParams(iter_max=2, steps_per_step_unit=1.0)
        result = SerialReferenceEngine(tiny_graph, params).run()
        assert np.all(np.isfinite(result.layout.coords))

    def test_serial_fixed_hop_does_not_converge_as_well(self, small_synthetic):
        params = LayoutParams(iter_max=4, steps_per_step_unit=1.0)
        scrambled = _scrambled_layout(small_synthetic)
        random_engine = CpuBaselineEngine(small_synthetic, params.with_(iter_max=12,
                                                                        steps_per_step_unit=3.0))
        good = random_engine.run(initial=scrambled)
        fixed = SerialReferenceEngine(small_synthetic, params).run_fixed_hop(hop=10)
        s_good = sampled_path_stress(good.layout, small_synthetic, samples_per_step=10).value
        s_fixed = sampled_path_stress(fixed.layout, small_synthetic, samples_per_step=10).value
        # Fig. 6: removing selection randomness prevents convergence.
        assert s_fixed > s_good

    def test_determinism_same_seed(self, small_synthetic, fast_params):
        a = layout_graph(small_synthetic, engine="cpu", params=fast_params)
        b = layout_graph(small_synthetic, engine="cpu", params=fast_params)
        assert np.allclose(a.layout.coords, b.layout.coords)

    def test_different_seed_differs(self, small_synthetic, fast_params):
        a = layout_graph(small_synthetic, engine="cpu", params=fast_params)
        b = layout_graph(small_synthetic, engine="cpu", params=fast_params.with_(seed=777))
        assert not np.allclose(a.layout.coords, b.layout.coords)

    def test_history_recording(self, small_synthetic):
        params = LayoutParams(iter_max=4, steps_per_step_unit=1.0, record_history=True)
        result = layout_graph(small_synthetic, engine="cpu", params=params)
        assert len(result.history) == 4
        assert result.final_stress() is not None
        etas = [h.eta for h in result.history]
        assert etas == sorted(etas, reverse=True)

    def test_no_history_by_default(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, engine="cpu", params=fast_params)
        assert result.history == []
        assert result.final_stress() is None


class TestCpuBaselineDetails:
    def test_batch_plan_covers_all_steps(self, small_synthetic, fast_params):
        engine = CpuBaselineEngine(small_synthetic,
                                   fast_params.with_(simulated_threads=4),
                                   hogwild_round=16)
        steps = fast_params.steps_per_iteration(small_synthetic.total_steps)
        plan = engine.batch_plan(steps)
        assert sum(plan) == steps
        assert max(plan) <= 4 * 16

    def test_invalid_hogwild_round(self, small_synthetic, fast_params):
        with pytest.raises(ValueError):
            CpuBaselineEngine(small_synthetic, fast_params, hogwild_round=0)

    def test_access_trace_layouts_differ(self, small_synthetic, fast_params):
        engine = CpuBaselineEngine(small_synthetic, fast_params)
        soa = engine.access_trace(n_terms=128, data_layout=NodeDataLayout.SOA)
        aos = engine.access_trace(n_terms=128, data_layout=NodeDataLayout.AOS)
        assert soa.shape == aos.shape == (128 * 6,)
        # AoS packs each term's three fields close together; SoA spreads them.
        aos_span = np.abs(np.diff(aos.reshape(-1, 3), axis=1)).max()
        soa_span = np.abs(np.diff(soa.reshape(-1, 3), axis=1)).max()
        assert aos_span < soa_span


class TestGpuEngineDetails:
    def test_wave_capped_by_graph_size(self, small_synthetic, fast_params):
        cfg = GpuKernelConfig(concurrent_threads=1 << 20)
        engine = OptimizedGpuEngine(small_synthetic, fast_params, cfg)
        plan = engine.batch_plan(10000)
        assert max(plan) <= max(32, small_synthetic.n_nodes // 4)

    def test_kernel_launches(self, small_synthetic, fast_params):
        engine = OptimizedGpuEngine(small_synthetic, fast_params)
        assert engine.kernel_launches() == fast_params.iter_max + 1

    def test_data_reuse_total_terms(self, small_synthetic, fast_params):
        cfg = GpuKernelConfig(data_reuse_factor=2, step_reduction_factor=2.0)
        engine = OptimizedGpuEngine(small_synthetic, fast_params, cfg)
        base = OptimizedGpuEngine(small_synthetic, fast_params)
        assert engine.total_terms() == pytest.approx(base.total_terms(), rel=0.01)

    def test_data_reuse_batches_are_larger(self, small_synthetic, fast_params):
        cfg = GpuKernelConfig(data_reuse_factor=4)
        engine = OptimizedGpuEngine(small_synthetic, fast_params, cfg)
        rng = engine.make_rng()
        batch = draw_segment(engine.sampler, rng, 64, 0, engine.recipe)
        expanded = engine.sampler.warp_shuffle(batch, [64], engine.recipe)
        assert len(expanded) == 4 * 64
        # Reused pairs must still be same-path pairs with consistent d_ref.
        assert np.array_equal(
            expanded.d_ref,
            np.abs(small_synthetic.step_positions[expanded.flat_i]
                   - small_synthetic.step_positions[expanded.flat_j]).astype(float),
        )

    def test_warp_merging_uniform_decision_per_warp(self, small_synthetic, fast_params):
        cfg = GpuKernelConfig(warp_merging=True)
        engine = OptimizedGpuEngine(small_synthetic, fast_params, cfg)
        rng = engine.make_rng()
        batch = draw_segment(engine.sampler, rng, 128, 0, engine.recipe)
        cooling = batch.in_cooling.reshape(-1, 32)
        assert np.all(cooling.min(axis=1) == cooling.max(axis=1))

    def test_no_warp_merging_mixed_decisions(self, small_synthetic, fast_params):
        cfg = GpuKernelConfig.baseline()
        engine = OptimizedGpuEngine(small_synthetic, fast_params, cfg)
        rng = engine.make_rng()
        batch = draw_segment(engine.sampler, rng, 1024, 0, engine.recipe)
        cooling = batch.in_cooling.reshape(-1, 32)
        mixed_warps = np.any(cooling, axis=1) & ~np.all(cooling, axis=1)
        assert mixed_warps.any()

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GpuKernelConfig(data_reuse_factor=0)
        with pytest.raises(ValueError):
            GpuKernelConfig(step_reduction_factor=0.5)
        with pytest.raises(ValueError):
            GpuKernelConfig(concurrent_threads=8, warp_size=32)

    def test_config_label(self):
        assert GpuKernelConfig().label() == "CDL+CRS+WM"
        assert "reuse(2,1.5)" in GpuKernelConfig(data_reuse_factor=2,
                                                 step_reduction_factor=1.5).label()


class TestBatchedEngine:
    def test_kernel_accounting(self, small_synthetic):
        params = LayoutParams(iter_max=2, steps_per_step_unit=1.0, batch_size=256)
        engine = BatchedLayoutEngine(small_synthetic, params)
        engine.run()
        profile = engine.op_profile
        assert profile.total_launches > 0
        assert "index" in profile.ops
        breakdown = profile.time_breakdown()
        assert pytest.approx(sum(breakdown.values()), rel=1e-6) == 1.0
        # Fig. 7: the index (gather/scatter) kernels dominate the time.
        assert breakdown["index"] == max(breakdown.values())

    def test_smaller_batches_launch_more_kernels(self, small_synthetic):
        small = BatchedLayoutEngine(small_synthetic,
                                    LayoutParams(iter_max=1, steps_per_step_unit=1.0,
                                                 batch_size=64))
        large = BatchedLayoutEngine(small_synthetic,
                                    LayoutParams(iter_max=1, steps_per_step_unit=1.0,
                                                 batch_size=4096))
        total = 100_000
        assert small.kernel_launches_for(total) > large.kernel_launches_for(total)

    def test_api_overhead_grows_with_smaller_batches(self, small_synthetic):
        fractions = []
        for batch_size in (64, 4096):
            params = LayoutParams(iter_max=1, steps_per_step_unit=1.0, batch_size=batch_size)
            engine = BatchedLayoutEngine(small_synthetic, params)
            engine.run()
            fractions.append(engine.op_profile.api_overhead_fraction)
        assert fractions[0] > fractions[1]

    def test_batch_plan(self, small_synthetic):
        params = LayoutParams(iter_max=1, steps_per_step_unit=1.0, batch_size=100)
        engine = BatchedLayoutEngine(small_synthetic, params)
        plan = engine.batch_plan(250)
        assert plan == [100, 100, 50]


#: Every runner, keyed by the case id: each returns a LayoutResult.
RUNNERS = {
    "cpu": lambda g, p: layout_graph(g, engine="cpu", params=p),
    "batch": lambda g, p: layout_graph(g, engine="batch", params=p),
    "gpu": lambda g, p: layout_graph(g, engine="gpu", params=p),
    "workers2": lambda g, p: layout_graph(g, params=p, workers=2),
    "levels3": lambda g, p: layout_graph(g, params=p, levels=3),
    "inline2": lambda g, p: run_workers_inline(g, p.with_(workers=2)),
    "fixedhop": lambda g, p: SerialReferenceEngine(g, p).run_fixed_hop(hop=10),
}


class TestEveryRunnerReportsItsWork:
    """Each runner's summary counts the work it did: dispatches, collisions
    and wall time. (The serial engine is left out: its one-term segments
    cannot collide.)"""

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_summary_reports_dispatches_collisions_and_time(
            self, small_synthetic, fast_params, runner):
        summary = RUNNERS[runner](small_synthetic, fast_params).summary()
        assert summary["update_dispatches"] >= summary["iterations"]
        assert summary["point_collisions"] > 0
        assert summary["wall_time_s"] > 0

    def test_multilevel_sums_its_levels(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, params=fast_params, levels=3)
        summary = result.summary()
        levels = [v for k, v in result.counters.items()
                  if k.startswith("level_iterations{")]
        assert len(levels) == 3
        assert sum(levels) == summary["iterations"]
        # One fused dispatch per iteration on every level.
        assert summary["update_dispatches"] == summary["iterations"]
        assert summary["fused_iterations"] == summary["iterations"]
