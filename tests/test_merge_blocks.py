"""The block merge kernel against the per-segment oracle.

Every engine path merges through one kernel
(:func:`repro.core.updates.merge_batch`, blocks planned by
:func:`repro.core.fused.block_plan`), so fused-vs-unfused and
serial-reference checks compare that kernel with itself. These tests
compare it with :mod:`merge_reference`, which runs the earlier
per-segment sequence on plain NumPy: coordinate bytes and collision
counts must match exactly for every merge policy.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import merge_reference as ref
import repro.core.fused as fused_mod
import repro.core.updates as updates_mod
from per_batch_reference import PerBatchRun
from repro.backend import ArrayBackend, get_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.core import (
    CpuBaselineEngine,
    LayoutParams,
    PairSampler,
    StepBatch,
    UpdateWorkspace,
    initialize_layout,
    merge_batch,
    prepare_block,
)
from repro.core.fused import (
    BLOCK_TERMS,
    block_plan,
    build_iteration_plans,
    iteration_draws,
    run_iteration_host,
    slice_plan,
)
from repro.graph import LeanGraph
from repro.prng import Xoshiro256Plus
from repro.synth import PangenomeConfig, simulate_pangenome

MERGES = ("hogwild", "accumulate", "last_writer")
STREAMS = 64


@pytest.fixture(scope="module")
def degenerate_graph():
    """Zero-length nodes (``d_ref = 0`` pairs, coincident endpoints) and
    paths that revisit nodes (points repeated within a segment)."""
    rng = np.random.default_rng(11)
    lengths = rng.choice([0, 0, 1, 3, 7], size=40)
    paths = [rng.integers(0, 40, size=n).tolist() for n in (60, 35, 80)]
    return LeanGraph.from_paths(lengths, paths)


def _oracle_run(graph, plan, merge, seed, memory_budget=None, eta=4.0,
                iteration=0):
    """Run ``plan`` through the fused run path and through the oracle on the
    same selected terms; both must agree byte for byte."""
    sampler = PairSampler(graph, LayoutParams())
    chunks = build_iteration_plans(sampler, UpdateWorkspace(max(plan)), merge,
                                   plan, STREAMS, memory_budget=memory_budget)
    rng = Xoshiro256Plus(seed, n_streams=STREAMS)
    coords = initialize_layout(graph, seed=seed).coords
    expect = coords.copy()
    collisions = []
    got = 0
    for chunk in chunks:
        uniforms = rng.next_double_block(chunk.calls_per_iteration)
        draws = iteration_draws(uniforms, chunk.plan, chunk.need_calls,
                                chunk.n_streams)
        terms = sampler.select_from_uniforms(draws, sum(chunk.plan), iteration)
        collisions += ref.run_plan(expect, terms, chunk.plan, eta, merge)
        got += run_iteration_host(get_backend("numpy"), chunk, coords,
                                  uniforms, eta, iteration).n_point_collisions
    assert coords.tobytes() == expect.tobytes()
    assert got == sum(collisions)
    return coords


def _batch(node_i, node_j, vis_i, vis_j, d_ref) -> StepBatch:
    n = len(node_i)
    zeros = np.zeros(n, dtype=np.int64)
    return StepBatch(path=zeros, flat_i=zeros, flat_j=zeros,
                     node_i=np.asarray(node_i, dtype=np.int64),
                     node_j=np.asarray(node_j, dtype=np.int64),
                     vis_i=np.asarray(vis_i, dtype=np.int64),
                     vis_j=np.asarray(vis_j, dtype=np.int64),
                     d_ref=np.asarray(d_ref, dtype=np.float64),
                     in_cooling=np.zeros(n, dtype=bool))


def _merge_blocks(coords, batch, plan, merge, eta):
    ws = UpdateWorkspace(1)
    total = 0
    offset = 0
    for segments, size in block_plan(plan):
        end = offset + segments * size
        total += merge_batch(coords, batch.slice(offset, end), eta, merge, ws,
                             segments)
        offset = end
    return total


class TestBlockPlan:
    def test_runs_of_equal_segments_form_blocks(self):
        assert block_plan([64, 64, 64, 17]) == [(3, 64), (1, 17)]
        assert block_plan([5, 5, 9, 5, 5]) == [(2, 5), (1, 9), (2, 5)]
        assert block_plan([]) == []

    def test_block_term_bound(self):
        cap = BLOCK_TERMS // 64
        assert block_plan([64] * (cap - 1)) == [(cap - 1, 64)]
        assert block_plan([64] * cap) == [(cap, 64)]
        assert block_plan([64] * (cap + 1)) == [(cap, 64), (1, 64)]

    def test_oversized_segments_stand_alone(self):
        big = BLOCK_TERMS + 1
        assert block_plan([big, big]) == [(1, big), (1, big)]
        assert block_plan([BLOCK_TERMS] * 2) == [(1, BLOCK_TERMS)] * 2

    def test_blocks_cover_plan_in_order(self):
        plan = [64] * 300 + [3, 3, 1] + [4096] * 5
        flat = [size for segments, size in block_plan(plan)
                for _ in range(segments)]
        assert flat == plan
        assert all(k * s <= BLOCK_TERMS or k == 1 for k, s in block_plan(plan))


@pytest.mark.parametrize("merge", MERGES)
class TestAgainstOracle:
    def test_uniform_plan_with_remainder(self, small_synthetic, merge):
        _oracle_run(small_synthetic, [64] * 40 + [23], merge, seed=3)

    def test_one_term_segments(self, small_synthetic, merge):
        _oracle_run(small_synthetic, [1] * 300, merge, seed=4)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_runs_at_the_block_bound(self, small_synthetic, merge, offset):
        plan = [64] * (BLOCK_TERMS // 64 + offset)
        _oracle_run(small_synthetic, plan, merge, seed=5 + offset)

    def test_mixed_sizes(self, small_synthetic, merge):
        plan = [64] * 5 + [7] * 9 + [64] * 3 + [1, 1, 130, 130]
        _oracle_run(small_synthetic, plan, merge, seed=6)

    @pytest.mark.parametrize("budget", [1, 20 * 384, 500 * 384])
    def test_memory_budget_chunks(self, small_synthetic, merge, budget):
        _oracle_run(small_synthetic, [64] * 150 + [40], merge, seed=7,
                    memory_budget=budget)

    def test_worker_sub_plans(self, small_synthetic, merge):
        for part in slice_plan([64] * 90 + [40], 3):
            _oracle_run(small_synthetic, part, merge, seed=8)

    def test_degenerate_graph(self, degenerate_graph, merge):
        # Cooling iterations draw close pairs: many zero-length hops.
        _oracle_run(degenerate_graph, [16] * 50 + [5], merge, seed=9,
                    iteration=10)

    def test_handmade_edge_cases(self, merge):
        """``d_ref = 0`` terms, coincident endpoints (the [1, 0] nudge) and
        points repeated within a segment and across adjacent segments."""
        rng = np.random.default_rng(3)
        size, segments = 12, 6
        n = size * segments
        node_i = rng.integers(0, 5, n)
        node_j = rng.integers(0, 5, n)
        vis_i = rng.integers(0, 2, n)
        vis_j = rng.integers(0, 2, n)
        node_j[::7] = node_i[::7]  # same point twice: zero distance
        vis_j[::7] = vis_i[::7]
        d_ref = rng.choice([0.0, 1.0, 2.5, 40.0], size=n)
        batch = _batch(node_i, node_j, vis_i, vis_j, d_ref)
        coords = np.random.default_rng(4).normal(size=(10, 2))
        coords[3] = coords[4]  # distinct points at one position
        expect = coords.copy()
        got = _merge_blocks(coords, batch, [size] * segments, merge, eta=3.0)
        collisions = ref.run_plan(expect, batch, [size] * segments, 3.0, merge)
        assert coords.tobytes() == expect.tobytes()
        assert got == sum(collisions)

    def test_per_segment_compaction(self, small_synthetic, merge):
        sampler = PairSampler(small_synthetic, LayoutParams())
        terms = sampler.sample(Xoshiro256Plus(12, n_streams=STREAMS), 64 * 9, 0)
        coords = initialize_layout(small_synthetic, seed=1).coords
        block = prepare_block(terms, 1.0, UpdateWorkspace(64), 9, coords.shape[0])
        for s in range(9):
            seg = terms.slice(64 * s, 64 * (s + 1))
            pi, pj, _ = ref.compute_displacements(coords, seg, 1.0)
            touched, inverse, counts = ref.compact_points(np.concatenate([pi, pj]))
            lo, hi = block.bounds[s], block.bounds[s + 1]
            np.testing.assert_array_equal(block.touched[lo:hi], touched)
            np.testing.assert_array_equal(block.inverse[s], inverse)
            np.testing.assert_array_equal(block.counts[lo:hi], counts)
        assert block.n_collisions == sum(
            128 - (block.bounds[s + 1] - block.bounds[s]) for s in range(9))


@given(
    graph_seed=st.integers(min_value=0, max_value=5),
    backbone=st.integers(min_value=8, max_value=50),
    loop_pct=st.integers(min_value=0, max_value=30),
    runs=st.lists(st.tuples(st.integers(min_value=1, max_value=70),
                            st.integers(min_value=1, max_value=130)),
                  min_size=1, max_size=3),
    merge=st.sampled_from(MERGES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    budget=st.sampled_from([None, 1, 200 * 384]),
    iteration=st.sampled_from([0, 10]),
)
@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_graphs_plans_and_policies(graph_seed, backbone, loop_pct, runs,
                                          merge, seed, budget, iteration):
    graph = simulate_pangenome(PangenomeConfig(
        n_backbone_nodes=backbone, n_paths=3, mean_node_length=3.0,
        bubble_rate=0.1, deletion_rate=0.05, n_structural_variants=1,
        sv_length_nodes=2, loop_rate=loop_pct / 100.0, seed=graph_seed,
        name=f"merge-blocks-{graph_seed}"))
    plan = [size for size, repeats in runs for _ in range(repeats)]
    _oracle_run(graph, plan, merge, seed, memory_budget=budget,
                iteration=iteration)


class TestRunPath:
    def test_layer_call_sites_run_once_per_block_or_segment(
            self, small_synthetic, monkeypatch):
        """``merge_batch`` (looked up in ``repro.core.fused``) and
        ``compact_points`` run once per block, ``compute_displacements``
        (looked up in ``repro.core.updates``) and ``merge_scatter`` once per
        segment."""
        calls = {"merge": 0, "displace": 0, "compact": 0, "scatter": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fused_mod, "merge_batch",
                            counting("merge", fused_mod.merge_batch))
        monkeypatch.setattr(updates_mod, "compute_displacements",
                            counting("displace", updates_mod.compute_displacements))
        monkeypatch.setattr(NumpyBackend, "compact_points",
                            counting("compact", NumpyBackend.compact_points))
        monkeypatch.setattr(NumpyBackend, "merge_scatter",
                            counting("scatter", NumpyBackend.merge_scatter))
        params = LayoutParams(iter_max=2, steps_per_step_unit=3.0, seed=5,
                              backend="numpy")
        engine = CpuBaselineEngine(small_synthetic, params)
        plan = engine.batch_plan(params.steps_per_iteration(
            small_synthetic.total_steps))
        result = engine.run()
        assert result.counters["fused_iterations"] == 2.0
        assert calls["merge"] == calls["compact"] == 2 * len(block_plan(plan))
        assert calls["displace"] == calls["scatter"] == 2 * len(plan)
        assert len(block_plan(plan)) < len(plan)

    @pytest.mark.parametrize("merge", MERGES)
    def test_engine_paths_agree(self, small_synthetic, merge):
        params = LayoutParams(iter_max=3, steps_per_step_unit=3.0, seed=21,
                              backend="numpy", merge_policy=merge)
        blocks = CpuBaselineEngine(small_synthetic, params).run()
        single = CpuBaselineEngine(small_synthetic,
                                   params.with_(memory_budget=1)).run()
        unfused = PerBatchRun(CpuBaselineEngine(small_synthetic, params)).run()
        for other in (single, unfused):
            assert other.layout.coords.tobytes() == blocks.layout.coords.tobytes()
            assert (other.counters["point_collisions"]
                    == blocks.counters["point_collisions"])


class _GenericNumpy(ArrayBackend):
    name = "generic-numpy"
    xp = np


@pytest.mark.parametrize("backend", [get_backend("numpy"), _GenericNumpy()],
                         ids=["numpy", "generic"])
def test_last_writer_keeps_highest_index_contribution(backend):
    rng = np.random.default_rng(17)
    points = rng.integers(0, 25, size=400)
    deltas = rng.normal(size=(400, 2))
    coords = rng.normal(size=(25, 2))
    expect = coords.copy()
    last = {int(p): k for k, p in enumerate(points)}  # later k overwrite
    for p, k in last.items():
        expect[p] += deltas[k]
    touched, inverse, counts = backend.compact_points(points)
    assert counts.max() > 1  # every point repeats many times
    backend.merge_scatter(coords, touched, inverse, counts, deltas,
                          "last_writer")
    assert coords.tobytes() == expect.tobytes()


def test_prepare_block_rejects_uneven_split():
    batch = _batch([0, 1, 2], [1, 2, 0], [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
    ws = UpdateWorkspace(3)
    with pytest.raises(ValueError, match="equal segments"):
        prepare_block(batch, 1.0, ws, segments=2, n_points=6)
    with pytest.raises(ValueError, match="n_points"):
        prepare_block(batch, 1.0, ws, segments=3)
