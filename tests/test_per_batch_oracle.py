"""Every engine's fused iteration against the per-batch loop it replaced.

The batched engine, the GPU model in seven configurations, the fixed-hop
run, ``record_history`` runs and two-level hierarchies over the batched
and GPU engines all step through ``step_units`` → ``backend.run_iteration``
now. Each must reproduce the per-batch oracle
(``tests/per_batch_reference.py``) bit for bit, under every merge policy
and memory budget: coordinate bytes, ``total_terms``, ``point_collisions``,
history records, the batched engine's ``op_profile`` and every
``GpuProfile`` field. Counters that describe the execution itself
(``update_dispatches``, ``kernel_launches``) are checked on their own.

The oracle merges through ``merge_batch`` too, so it always runs on
the NumPy fallback (``on_fallback``). The engine under test runs on the
compiled merge and draw (the default when they load) and, in
``TestAgainstPerBatchLoopOnFallback``, on the fallback.
"""
from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import per_batch_reference as ref
from per_batch_reference import PerBatchRun
from repro.core import (
    BatchedLayoutEngine,
    CpuBaselineEngine,
    GpuKernelConfig,
    LayoutParams,
    OptimizedGpuEngine,
    SerialReferenceEngine,
)
from repro.core.fused import draw_segment
from repro.multilevel import MultilevelDriver
from repro.prng import Xoshiro256Plus
from repro.synth import PangenomeConfig, simulate_pangenome

MERGES = ("hogwild", "accumulate", "last_writer")
BUDGETS = (None, 1, "64MB")

GPU_CONFIGS = {
    "default": GpuKernelConfig(),
    "baseline": GpuKernelConfig.baseline(),
    "drf2-srf2": GpuKernelConfig(data_reuse_factor=2, step_reduction_factor=2.0),
    "drf4-srf4": GpuKernelConfig(data_reuse_factor=4, step_reduction_factor=4.0),
    "ct100-drf1": GpuKernelConfig(concurrent_threads=100),
    "ct100-drf3": GpuKernelConfig(concurrent_threads=100, data_reuse_factor=3),
    "w8-ct40-nowm-drf2": GpuKernelConfig(warp_size=8, concurrent_threads=40,
                                         warp_merging=False,
                                         data_reuse_factor=2),
}


@pytest.fixture(scope="module")
def graph():
    """Bubbles, a loop, and GPU waves of three 32-lane warps plus a
    remainder wave with a partial warp."""
    return simulate_pangenome(PangenomeConfig(
        n_backbone_nodes=420, n_paths=4, mean_node_length=6.0,
        bubble_rate=0.1, deletion_rate=0.03, n_structural_variants=1,
        sv_length_nodes=5, loop_rate=0.05, seed=41, name="per-batch-oracle"))


@pytest.fixture(scope="module")
def tiny():
    """The fixed-hop run is one-term-per-call serial; keep it short."""
    return simulate_pangenome(PangenomeConfig(
        n_backbone_nodes=30, n_paths=3, mean_node_length=4.0,
        bubble_rate=0.1, deletion_rate=0.02, n_structural_variants=1,
        sv_length_nodes=3, loop_rate=0.05, seed=43, name="fixed-hop-oracle"))


def _params(merge, budget, **overrides) -> LayoutParams:
    base = dict(iter_max=3, steps_per_step_unit=1.0, seed=31,
                merge_policy=merge, memory_budget=budget,
                batch_size=96)
    base.update(overrides)
    return LayoutParams(**base)


def _assert_same_layout(new, old):
    assert new.layout.coords.tobytes() == old.layout.coords.tobytes()
    assert new.total_terms == old.total_terms
    assert new.counters["point_collisions"] == old.counters["point_collisions"]


def _assert_same_run(new, old):
    _assert_same_layout(new, old)

    def records(history):
        return [dataclasses.replace(h, sampled_stress=0.0) for h in history]

    assert records(new.history) == records(old.history)
    assert ([h.sampled_stress for h in new.history]
            == [h.sampled_stress for h in old.history])
    assert new.counters["fused_iterations"] == new.iterations


def _assert_same_ops(new, old):
    assert new.op_profile.ops.keys() == old.op_profile.ops.keys()
    for name, op in new.op_profile.ops.items():
        assert dataclasses.astuple(op) == dataclasses.astuple(old.op_profile.ops[name])


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("merge", MERGES)
class TestAgainstPerBatchLoop:
    def test_batched_engine(self, graph, merge, budget, on_fallback):
        params = _params(merge, budget)
        engine = BatchedLayoutEngine(graph, params)
        new = engine.run()
        oracle = PerBatchRun(BatchedLayoutEngine(graph, params))
        _assert_same_run(new, on_fallback(oracle.run))
        _assert_same_ops(engine, oracle)
        # The counter now counts the launch column (20 per batch), as
        # op_profile does; the per-batch hook added 12, one per op kind.
        assert new.counters["kernel_launches"] == engine.op_profile.total_launches

    @pytest.mark.parametrize("config", GPU_CONFIGS, ids=str)
    def test_gpu_engine(self, graph, merge, budget, config, on_fallback):
        cfg = GPU_CONFIGS[config]
        params = _params(merge, budget)
        engine = OptimizedGpuEngine(graph, params, cfg)
        new = engine.run()
        oracle = PerBatchRun(OptimizedGpuEngine(graph, params, cfg))
        _assert_same_run(new, on_fallback(oracle.run))
        got = engine.profile(n_sample_terms=512, iteration=1)
        expect = on_fallback(oracle.profile, n_sample_terms=512, iteration=1)
        assert dataclasses.asdict(got) == dataclasses.asdict(expect)
        assert (got.detail["warp_cooling_fraction"]
                == oracle.warp_cooling_fraction)

    def test_fixed_hop(self, tiny, merge, budget, on_fallback):
        params = _params(merge, budget, iter_max=2)
        new = SerialReferenceEngine(tiny, params).run_fixed_hop(hop=3)
        old = on_fallback(PerBatchRun(SerialReferenceEngine(tiny, params),
                                      hop=3).run)
        _assert_same_run(new, old)

    @pytest.mark.parametrize("kind", ("cpu", "gpu-drf2", "batch"))
    def test_record_history(self, graph, merge, budget, kind, on_fallback):
        params = _params(merge, budget, record_history=True)
        if kind == "cpu":
            make = lambda: CpuBaselineEngine(graph, params)  # noqa: E731
        elif kind == "batch":
            make = lambda: BatchedLayoutEngine(graph, params)  # noqa: E731
        else:
            make = lambda: OptimizedGpuEngine(  # noqa: E731
                graph, params, GPU_CONFIGS["drf2-srf2"])
        new = make().run()
        old = on_fallback(PerBatchRun(make()).run)
        assert len(new.history) == params.iter_max
        _assert_same_run(new, old)

    @pytest.mark.parametrize("kind", ("gpu", "batch"))
    def test_two_levels(self, graph, merge, budget, kind, monkeypatch,
                        on_fallback):
        params = _params(merge, budget, levels=2, coarsen_min_nodes=8)
        new_driver = MultilevelDriver(graph, params, engine=kind)
        assert new_driver.hierarchy.depth == 2
        new = new_driver.run()
        build = MultilevelDriver._make_level_engine
        monkeypatch.setattr(MultilevelDriver, "_make_level_engine",
                            lambda self, *a: PerBatchRun(build(self, *a)))
        old = on_fallback(MultilevelDriver(graph, params, engine=kind).run)
        _assert_same_layout(new, old)


@pytest.mark.usefixtures("no_kernels")
class TestAgainstPerBatchLoopOnFallback(TestAgainstPerBatchLoop):
    """The comparisons above with the engine on the NumPy fallback too."""


@pytest.mark.parametrize("warp,merging,reuse", [(2, True, 1), (2, False, 3),
                                                 (5, True, 2), (1, True, 1)])
@pytest.mark.parametrize("iteration", [0, 2])
def test_draw_segment_matches_draw_batch_with_many_calls_per_vector(
        graph, warp, merging, reuse, iteration):
    """A few streams and many warps: each per-warp vector takes several
    PRNG calls, which no engine plan exercises."""
    cfg = GpuKernelConfig(warp_size=warp, concurrent_threads=max(warp, 3),
                          warp_merging=merging, data_reuse_factor=reuse)
    engine = OptimizedGpuEngine(graph, _params("hogwild", None), cfg)
    oracle = SimpleNamespace(config=cfg, sampler=engine.sampler,
                             params=engine.params, index=engine.index,
                             graph=graph, _warp_cooling_fraction_sum=0.0,
                             _warp_cooling_batches=0)
    rng_new, rng_old = Xoshiro256Plus(7, n_streams=3), Xoshiro256Plus(7, n_streams=3)
    for size in (37, 12):
        got = draw_segment(engine.sampler, rng_new, size, iteration, engine.recipe)
        expect = ref._gpu_draw_batch(oracle, rng_old, size, iteration, 0)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(expect, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        if reuse > 1:
            expanded = ref._apply_warp_shuffle_reuse(oracle, expect, reuse)
            shuffled = engine.sampler.warp_shuffle(got, [size], engine.recipe)
            for f in dataclasses.fields(shuffled):
                assert np.array_equal(getattr(shuffled, f.name),
                                      getattr(expanded, f.name)), f.name
    assert np.array_equal(rng_new.state, rng_old.state)
    assert engine.recipe.cooling_sum == oracle._warp_cooling_fraction_sum
    assert engine.recipe.cooling_segments == oracle._warp_cooling_batches


def test_kernel_launches_match_op_profile_over_levels(graph, monkeypatch):
    """Summed over a three-level hierarchy, the counter is the sum of the
    level engines' ``op_profile.total_launches``."""
    engines = []
    build = MultilevelDriver._make_level_engine

    def keep(self, *args):
        engines.append(build(self, *args))
        return engines[-1]

    monkeypatch.setattr(MultilevelDriver, "_make_level_engine", keep)
    params = _params("hogwild", None, levels=3, coarsen_min_nodes=8,
                     iter_max=6)
    driver = MultilevelDriver(graph, params, engine="batch")
    result = driver.run()
    assert driver.hierarchy.depth == 3 and len(engines) == 3
    assert result.counters["kernel_launches"] == sum(
        e.op_profile.total_launches for e in engines)


def test_every_engine_steps_once_per_chunk(graph):
    """One ``update_dispatches`` per chunk, and a budget chunks every engine."""
    params = _params("hogwild", None)
    for make in (lambda p: BatchedLayoutEngine(graph, p),
                 lambda p: OptimizedGpuEngine(graph, p, GPU_CONFIGS["drf2-srf2"]),
                 lambda p: SerialReferenceEngine(graph, p.with_(iter_max=1))):
        flat = make(params).run()
        assert flat.counters["update_dispatches"] == flat.iterations
        chunked = make(params.with_(memory_budget=1)).run()
        chunks = chunked.counters["fused_chunks"]
        assert chunks > 1
        assert chunked.counters["update_dispatches"] == chunks * chunked.iterations


def test_modelled_engines_emit_selection_and_merge_spans(graph, tmp_path):
    from repro.obs.trace_file import read_trace

    for name, make in (("batch", lambda p: BatchedLayoutEngine(graph, p)),
                       ("gpu", lambda p: OptimizedGpuEngine(graph, p))):
        path = tmp_path / f"{name}.jsonl"
        # The generic host path emits these spans; pin it.
        make(_params("hogwild", None, trace=str(path), backend="numpy")).run()
        phases = [event.name for event in read_trace(str(path)).events]
        assert phases.count("selection") == phases.count("merge") == 3
