"""Fused per-iteration execution path: contract, byte-identity, routing.

Every engine runs its iterations through ``backend.run_iteration``, an
execution strategy, not an algorithm change: on the NumPy backend a run
must be *byte-identical* to the per-batch loop it replaced
(``tests/per_batch_reference.py``) for every engine and merge policy, while
dispatching into the backend O(1) times per iteration instead of
O(n_batches). These tests pin that contract — plus the megablock
draw-order equivalence, the history probe, the deprecated ``fused`` option,
which plans take device selection, and (via a stubbed ``numba`` module
executing the ``@njit`` source as plain Python) the fused Numba kernel's
selection/merge logic and which plans it runs, on machines without the JIT
toolchain.
"""
from __future__ import annotations

import importlib
import sys
import types
import warnings

import numpy as np
import pytest

from per_batch_reference import PerBatchRun
from repro.backend import get_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.core import (
    BatchedLayoutEngine,
    CpuBaselineEngine,
    FusedIterationPlan,
    LayoutParams,
    OptimizedGpuEngine,
    PairSampler,
    SerialReferenceEngine,
    UpdateWorkspace,
    initialize_layout,
    merge_batch,
    run_iteration_host,
    uniform_call_plan,
)
from repro.core.fused import iteration_draws
from repro.core.selection import DrawRecipe
from repro.prng import Xoshiro256Plus
from repro.synth import PangenomeConfig, simulate_pangenome

MERGES = ("hogwild", "accumulate", "last_writer")


@pytest.fixture(scope="module")
def fused_graph():
    """Small synthetic pangenome with bubbles and a loop (fast to lay out)."""
    return simulate_pangenome(PangenomeConfig(
        n_backbone_nodes=40, n_paths=3, mean_node_length=4.0, bubble_rate=0.12,
        deletion_rate=0.03, n_structural_variants=1, sv_length_nodes=4,
        loop_rate=0.1, seed=29, name="fused-test"))


def _params(merge: str = "hogwild", **kwargs) -> LayoutParams:
    base = dict(iter_max=4, steps_per_step_unit=1.0, seed=23,
                merge_policy=merge, backend="numpy")
    base.update(kwargs)
    return LayoutParams(**base)


# ---------------------------------------------------------------------------
# Plan / megablock bookkeeping
# ---------------------------------------------------------------------------

class TestUniformCallPlan:
    def test_calls_match_unfused_draws(self):
        need, total = uniform_call_plan([64, 64, 10], n_streams=64)
        np.testing.assert_array_equal(need, [1, 1, 1])
        assert total == 8 * 3

    def test_multi_call_segments(self):
        need, total = uniform_call_plan([20, 20, 3], n_streams=7)
        np.testing.assert_array_equal(need, [3, 3, 1])
        assert total == 8 * 7

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_call_plan([4], n_streams=0)
        with pytest.raises(ValueError):
            FusedIterationPlan(sampler=None, workspace=None, merge="hogwild",
                               plan=[4, 0], n_streams=4)

    def test_iteration_draws_equals_per_segment_slicing(self):
        plan = [20, 20, 3]
        streams = 7
        need, total_calls = uniform_call_plan(plan, streams)
        rng_block = Xoshiro256Plus(5, n_streams=streams)
        block = rng_block.next_double_block(total_calls)
        relaid = iteration_draws(block, plan, need, streams)
        # Reference: what the unfused per-batch _uniforms would have drawn.
        rng_ref = Xoshiro256Plus(5, n_streams=streams)
        offset = 0
        for batch in plan:
            expect = PairSampler._uniforms(rng_ref, batch, 8)
            np.testing.assert_array_equal(relaid[:, offset:offset + batch],
                                          expect)
            offset += batch
        assert offset == relaid.shape[1]


# ---------------------------------------------------------------------------
# Engine-level byte-identity and fallbacks
# ---------------------------------------------------------------------------

class TestEngineFusedPath:
    @pytest.mark.parametrize("merge", MERGES)
    @pytest.mark.parametrize("engine_cls", (CpuBaselineEngine,
                                            SerialReferenceEngine))
    def test_fused_byte_identical_to_unfused(self, fused_graph, engine_cls,
                                             merge):
        unfused = PerBatchRun(engine_cls(fused_graph, _params(merge))).run()
        fused = engine_cls(fused_graph, _params(merge)).run()
        np.testing.assert_array_equal(fused.layout.coords,
                                      unfused.layout.coords)
        assert fused.total_terms == unfused.total_terms
        assert fused.counters["fused_iterations"] == 4.0

    def test_auto_resolves_to_fused_on_numpy(self, fused_graph):
        result = CpuBaselineEngine(fused_graph, _params()).run()
        assert result.counters["fused_iterations"] == result.iterations

    def test_dispatches_are_o1_per_iteration(self, fused_graph):
        fused = CpuBaselineEngine(fused_graph, _params()).run()
        unfused = PerBatchRun(CpuBaselineEngine(fused_graph, _params())).run()
        assert fused.counters["update_dispatches"] == fused.iterations
        assert (unfused.counters["update_dispatches"]
                > unfused.iterations)

    def test_modelled_engines_take_the_fused_iteration(self, fused_graph):
        batch = BatchedLayoutEngine(fused_graph, _params(batch_size=32))
        gpu = OptimizedGpuEngine(fused_graph, _params())
        for engine in (batch, gpu):
            result = engine.run()
            assert result.counters["fused_iterations"] == result.iterations
            assert result.counters["update_dispatches"] == result.iterations
        # The launch accounting is derived from the plan.
        assert batch.op_profile.total_launches > 0

    def test_record_history_probes_inside_the_fused_iteration(self,
                                                              fused_graph):
        engine = CpuBaselineEngine(fused_graph, _params(record_history=True))
        result = engine.run()
        assert result.counters["fused_iterations"] == result.iterations
        assert len(result.history) == 4
        # One dispatch per iteration: the probe rides in the first chunk.
        assert result.counters["update_dispatches"] == result.iterations

    def test_fused_option_is_a_deprecated_no_op(self, fused_graph):
        plain = CpuBaselineEngine(fused_graph, _params()).run()
        for value in (True, False):
            with pytest.warns(FutureWarning, match="fused option"):
                params = _params(fused=value)
            result = CpuBaselineEngine(fused_graph, params).run()
            assert result.layout.coords.tobytes() == plain.layout.coords.tobytes()
            assert result.counters["fused_iterations"] == result.iterations

    def test_multilevel_threads_fused_through_levels(self, fused_graph,
                                                     monkeypatch):
        from repro.multilevel import MultilevelDriver

        params = _params().with_(levels=2)
        fused = MultilevelDriver(fused_graph, params, engine="cpu").run()
        assert fused.counters["fused_iterations"] == fused.iterations
        build = MultilevelDriver._make_level_engine
        monkeypatch.setattr(MultilevelDriver, "_make_level_engine",
                            lambda self, *a: PerBatchRun(build(self, *a)))
        unfused = MultilevelDriver(fused_graph, params, engine="cpu").run()
        np.testing.assert_array_equal(fused.layout.coords,
                                      unfused.layout.coords)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LayoutParams(fused="yes")
        with pytest.warns(FutureWarning):
            assert LayoutParams(fused=True).fused is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # None (perfbench passes it) is silent
            assert LayoutParams(fused=None).fused is None


# ---------------------------------------------------------------------------
# run_iteration contract against a hand-rolled per-segment loop
# ---------------------------------------------------------------------------

class TestRunIterationContract:
    def _manual_reference(self, sampler, plan, streams, merge, coords, eta,
                          iteration, seed):
        """The unfused loop, spelled out: per-segment draw + select + merge."""
        rng = Xoshiro256Plus(seed, n_streams=streams)
        ws = UpdateWorkspace(max(plan), backend=get_backend("numpy"))
        collisions = 0
        for batch_size in plan:
            draws = PairSampler._uniforms(rng, batch_size, 8)
            batch = sampler.select_from_uniforms(draws, batch_size, iteration)
            _, n_coll = merge_batch(coords, batch, eta, merge, ws)
            collisions += n_coll
        return collisions

    @pytest.mark.parametrize("merge", MERGES)
    @pytest.mark.parametrize("plan,streams", [([20, 20, 3], 7), ([1] * 25, 1),
                                              ([64, 64, 10], 64)])
    def test_host_runner_matches_manual_loop(self, fused_graph, merge, plan,
                                             streams):
        sampler = PairSampler(fused_graph, _params(merge))
        base = initialize_layout(fused_graph, seed=3).coords
        expect = base.copy()
        expect_collisions = self._manual_reference(
            sampler, plan, streams, merge, expect, 0.7, iteration=1, seed=41)

        backend = get_backend("numpy")
        fplan = FusedIterationPlan(
            sampler=sampler, merge=merge, plan=plan, n_streams=streams,
            workspace=UpdateWorkspace(max(plan), backend=backend))
        rng = Xoshiro256Plus(41, n_streams=streams)
        got = base.copy()
        stats = backend.run_iteration(
            fplan, got, rng.next_double_block(fplan.calls_per_iteration),
            0.7, 1)
        np.testing.assert_array_equal(got, expect)
        assert stats.n_terms == sum(plan)
        assert stats.n_point_collisions == expect_collisions

    def test_device_selection_flag_routes_through_backend_namespace(
            self, fused_graph):
        """A host backend flagged fused_device_selection must be a no-op swap."""
        backend = get_backend("numpy")
        sampler = PairSampler(fused_graph, _params())
        plan = [16, 16]
        fplan = FusedIterationPlan(
            sampler=sampler, merge="hogwild", plan=plan, n_streams=8,
            workspace=UpdateWorkspace(16, backend=backend))
        base = initialize_layout(fused_graph, seed=5).coords
        rng = Xoshiro256Plus(9, n_streams=8)
        block = rng.next_double_block(fplan.calls_per_iteration)
        expect = base.copy()
        run_iteration_host(backend, fplan, expect, block, 0.5, 0)

        class Deviceish(type(backend)):
            fused_device_selection = True

        got = base.copy()
        run_iteration_host(Deviceish(), fplan, got, block, 0.5, 0)
        np.testing.assert_array_equal(got, expect)
        # The device bundle was cached in the chunk-shared scratch under the
        # backend's name (PR 8: uploaded once per run, not once per chunk).
        assert f"arrays/{backend.name}" in fplan.scratch
        assert f"arrays/{backend.name}" not in fplan.cache

    @pytest.mark.parametrize("recipe", [DrawRecipe(warp=4, warp_paths=True,
                                                   reuse=2),
                                        DrawRecipe(hop=3)],
                             ids=["gpu-model", "fixed-hop"])
    def test_device_selection_applies_to_stock_recipe_only(
            self, fused_graph, recipe):
        """Per-warp and fixed-hop plans select on the host even when the
        backend asks for device selection."""

        class Deviceish(NumpyBackend):
            fused_device_selection = True

        host, device = get_backend("numpy"), Deviceish()
        base = initialize_layout(fused_graph, seed=5).coords
        got = {}
        for backend in (host, device):
            fplan = FusedIterationPlan(
                sampler=PairSampler(fused_graph, _params()), merge="hogwild",
                plan=[16, 16, 5], n_streams=8, recipe=recipe,
                workspace=UpdateWorkspace(16, backend=backend))
            rng = Xoshiro256Plus(9, n_streams=8)
            got[backend.name] = base.copy()
            backend.run_iteration(
                fplan, got[backend.name],
                rng.next_double_block(fplan.calls_per_iteration), 0.5, 0)
            assert not any(key.startswith("arrays/") for key in fplan.scratch)
        assert got[host.name].tobytes() == got[device.name].tobytes()


# ---------------------------------------------------------------------------
# Numba fused kernel logic, executed as plain Python via a stubbed numba
# ---------------------------------------------------------------------------

@pytest.fixture()
def numba_backend_module(monkeypatch):
    """Import repro.backend.numba_backend with ``numba.njit`` as a no-op.

    On machines without numba this executes the kernels' *source* as plain
    Python — same IEEE double math, same control flow — so the fused kernel
    logic is exercised everywhere, not only on the CI job that installs the
    JIT toolchain. The module is evicted afterwards so other tests see the
    real import behaviour.
    """
    stub = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate

    stub.njit = njit
    monkeypatch.setitem(sys.modules, "numba", stub)
    sys.modules.pop("repro.backend.numba_backend", None)
    module = importlib.import_module("repro.backend.numba_backend")
    yield module
    sys.modules.pop("repro.backend.numba_backend", None)


class TestNumbaFusedKernel:
    def test_self_test_passes_in_pure_python(self, numba_backend_module):
        numba_backend_module.NumbaBackend().self_test()

    @pytest.mark.parametrize("merge", MERGES)
    def test_fused_kernel_matches_numpy_reference(self, fused_graph,
                                                  numba_backend_module, merge):
        """Selection + merge logic of the @njit kernel vs the NumPy path.

        Integer selection must agree *exactly* (an off-by-one pair pick is a
        logic bug, not rounding), which the collision-count equality pins;
        coordinates are held to the conformance tolerance.
        """
        params = _params(merge)
        sampler = PairSampler(fused_graph, params)
        numpy_backend = get_backend("numpy")
        stub_backend = numba_backend_module.NumbaBackend()
        plan = [20, 20, 3]
        streams = 7
        base = initialize_layout(fused_graph, seed=7).coords

        def run(backend, coords):
            fplan = FusedIterationPlan(
                sampler=sampler, merge=merge, plan=plan, n_streams=streams,
                workspace=UpdateWorkspace(max(plan), backend=numpy_backend))
            rng = Xoshiro256Plus(params.seed, n_streams=streams)
            totals = []
            for iteration in range(3):  # crosses the cooling boundary
                block = rng.next_double_block(fplan.calls_per_iteration)
                stats = backend.run_iteration(fplan, coords, block,
                                              0.9 - 0.2 * iteration, iteration)
                totals.append((stats.n_terms, stats.n_point_collisions))
            return totals

        expect = base.copy()
        ref_stats = run(numpy_backend, expect)
        got = base.copy()
        stub_stats = run(stub_backend, got)
        assert stub_stats == ref_stats
        np.testing.assert_allclose(got, expect, atol=1e-9, rtol=0)

    def test_compiled_kernel_runs_stock_plans_without_probe_only(
            self, fused_graph, numba_backend_module, monkeypatch):
        """Stock-recipe plans without a history probe run the compiled
        kernel; the GPU model's and fixed-hop recipes and probing plans go
        to the generic ``run_iteration_host``, with the same layouts."""
        import repro.core.fused as fused_mod

        calls = {"kernel": 0, "host": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(numba_backend_module, "_fused_iteration_kernel",
                            counting("kernel", numba_backend_module
                                     ._fused_iteration_kernel))
        monkeypatch.setattr(fused_mod, "run_iteration_host",
                            counting("host", fused_mod.run_iteration_host))
        params = _params(iter_max=2)
        runs = {
            "cpu": (lambda: CpuBaselineEngine(fused_graph, params), "kernel"),
            "batch": (lambda: BatchedLayoutEngine(
                fused_graph, params.with_(batch_size=32)), "kernel"),
            "history": (lambda: CpuBaselineEngine(
                fused_graph, params.with_(record_history=True)), "host"),
            "gpu": (lambda: OptimizedGpuEngine(fused_graph, params), "host"),
        }
        for name, (make, path) in runs.items():
            expect = make().run()
            engine = make()
            engine.backend = numba_backend_module.NumbaBackend()
            calls.update(kernel=0, host=0)
            got = engine.run()
            assert calls[path] == 2, name
            assert calls["kernel" if path == "host" else "host"] == 0, name
            np.testing.assert_allclose(got.layout.coords, expect.layout.coords,
                                       atol=1e-9, rtol=0)
            assert got.history == expect.history
        serial = SerialReferenceEngine(fused_graph, params.with_(iter_max=1))
        expect = serial.run_fixed_hop(hop=3)
        serial.backend = numba_backend_module.NumbaBackend()
        calls.update(kernel=0, host=0)
        got = serial.run_fixed_hop(hop=3)
        assert calls == {"kernel": 0, "host": 1}
        np.testing.assert_allclose(got.layout.coords, expect.layout.coords,
                                   atol=1e-9, rtol=0)

    def test_merge_scatter_kernel_matches_reference(self, numba_backend_module,
                                                    fused_graph):
        sampler = PairSampler(fused_graph, _params())
        rng = Xoshiro256Plus(3, n_streams=32)
        batch = sampler.sample(rng, 96, iteration=0)
        base = initialize_layout(fused_graph, seed=1).coords
        from repro.core import apply_batch

        for merge in MERGES:
            expect = base.copy()
            ref = apply_batch(expect, batch, 0.6, merge=merge)
            got = base.copy()
            stats = apply_batch(got, batch, 0.6, merge=merge,
                                backend=numba_backend_module.NumbaBackend())
            np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)
            assert stats.n_point_collisions == ref.n_point_collisions
