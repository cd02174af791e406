"""Fused per-iteration execution path: contract, byte-identity, routing.

Every engine runs its iterations through ``backend.run_iteration``, an
execution strategy, not an algorithm change: on the NumPy backend a run
must be *byte-identical* to the per-batch loop it replaced
(``tests/per_batch_reference.py``) for every engine and merge policy, while
dispatching into the backend O(1) times per iteration instead of
O(n_batches). These tests pin that contract — plus the megablock
draw-order equivalence, the history probe and the deprecated ``fused``
option.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from per_batch_reference import PerBatchRun, draw_block
from repro.backend import NUMPY_BACKEND
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
    uniform_call_plan,
)
from repro.core.fused import iteration_draws
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
        # Reference: what the per-batch loop's own block fill draws.
        rng_ref = Xoshiro256Plus(5, n_streams=streams)
        offset = 0
        for batch in plan:
            expect = draw_block(rng_ref, batch, 8)
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
        ws = UpdateWorkspace(max(plan))
        collisions = 0
        for batch_size in plan:
            draws = draw_block(rng, batch_size, 8)
            batch = sampler.select_from_uniforms(draws, batch_size, iteration)
            collisions += merge_batch(coords, batch, eta, merge, ws)
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

        fplan = FusedIterationPlan(
            sampler=sampler, merge=merge, plan=plan, n_streams=streams,
            workspace=UpdateWorkspace(max(plan)))
        rng = Xoshiro256Plus(41, n_streams=streams)
        got = base.copy()
        stats = NUMPY_BACKEND.run_iteration(
            fplan, got, rng.next_double_block(fplan.calls_per_iteration),
            0.7, 1)
        np.testing.assert_array_equal(got, expect)
        assert stats.n_terms == sum(plan)
        assert stats.n_point_collisions == expect_collisions
