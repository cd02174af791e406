"""Hot-path regression tests: O(batch) merges, workspace reuse, bulk draws.

``merge_batch``, the merge every run takes, compacts over the touched points
instead of allocating graph-sized scratch per batch; these tests pin its
numerical equivalence (within 1e-9) to the seed implementation for every
merge policy, the collision counters and the degenerate cases. They also
pin the run's draw order (``uniform_call_plan`` → ``next_double_block`` →
``iteration_draws``, and ``draw_segment`` for one segment) to the seed's
nested-loop draw, byte for byte and to the final PRNG state.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LayoutParams,
    PairSampler,
    StepBatch,
    UpdateWorkspace,
    compact_points,
    compute_displacements,
    draw_segment,
    initialize_layout,
    merge_batch,
    prepare_block,
    split_into_batches,
    uniform_call_plan,
)
from repro.core.fused import iteration_draws
from repro.core.selection import DrawRecipe
from repro.core.updates import _MIN_DISTANCE
from repro.graph import PathIndex
from repro.prng import Xoshiro256Plus


# --------------------------------------------------------------------------
# Seed (pre-rework) reference implementations, kept verbatim for equivalence.
# --------------------------------------------------------------------------

def seed_apply_batch(coords, batch, eta, merge):
    """The original full-array implementation of the per-batch write merge."""
    d_ref = batch.d_ref
    valid = d_ref > 0
    d_safe = np.where(valid, d_ref, 1.0)
    mu = np.minimum(eta / (d_safe * d_safe), 1.0)
    point_i = 2 * batch.node_i + batch.vis_i
    point_j = 2 * batch.node_j + batch.vis_j
    diff = coords[point_i] - coords[point_j]
    mag = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    mag_safe = np.maximum(mag, _MIN_DISTANCE)
    delta_scalar = np.where(valid, mu * (mag - d_safe) / 2.0, 0.0)
    unit = diff / mag_safe[:, None]
    coincident = mag < _MIN_DISTANCE
    if np.any(coincident):
        unit[coincident] = np.array([1.0, 0.0])
    delta = unit * delta_scalar[:, None]
    all_points = np.concatenate([point_i, point_j])
    all_deltas = np.concatenate([-delta, delta])
    n_collisions = int(all_points.size - np.unique(all_points).size)
    if merge == "accumulate":
        np.add.at(coords, all_points, all_deltas)
    elif merge == "hogwild":
        summed = np.zeros_like(coords)
        counts = np.zeros(coords.shape[0], dtype=np.float64)
        np.add.at(summed, all_points, all_deltas)
        np.add.at(counts, all_points, 1.0)
        touched = counts > 0
        coords[touched] += summed[touched] / counts[touched, None]
    else:
        reversed_points = all_points[::-1]
        _, first_in_reversed = np.unique(reversed_points, return_index=True)
        keep = all_points.size - 1 - first_in_reversed
        coords[all_points[keep]] += all_deltas[keep]
    return n_collisions


def seed_uniforms(rng, batch_size, n_vectors):
    """The original nested-loop uniform draw (defines the draw-order contract)."""
    first = np.asarray(rng.next_double(), dtype=np.float64)
    n_streams = first.size
    need_calls = int(np.ceil(batch_size / n_streams))
    rows = np.empty((n_vectors, need_calls * n_streams), dtype=np.float64)
    rows[0, :n_streams] = first
    for c in range(1, need_calls):
        rows[0, c * n_streams:(c + 1) * n_streams] = rng.next_double()
    for v in range(1, n_vectors):
        for c in range(need_calls):
            rows[v, c * n_streams:(c + 1) * n_streams] = rng.next_double()
    return rows[:, :batch_size]


def make_batch(node_i, node_j, vis_i, vis_j, d_ref):
    n = len(node_i)
    return StepBatch(
        path=np.zeros(n, dtype=np.int64),
        flat_i=np.zeros(n, dtype=np.int64),
        flat_j=np.zeros(n, dtype=np.int64),
        node_i=np.asarray(node_i, dtype=np.int64),
        node_j=np.asarray(node_j, dtype=np.int64),
        vis_i=np.asarray(vis_i, dtype=np.int64),
        vis_j=np.asarray(vis_j, dtype=np.int64),
        d_ref=np.asarray(d_ref, dtype=np.float64),
        in_cooling=np.zeros(n, dtype=bool),
    )


MERGES = ("hogwild", "accumulate", "last_writer")
FIELDS = ("path", "flat_i", "flat_j", "node_i", "node_j", "vis_i", "vis_j",
          "d_ref", "in_cooling")


def merge(coords, batch, eta, policy, workspace=None):
    """One-segment ``merge_batch`` with a batch-sized workspace by default."""
    ws = workspace if workspace is not None else UpdateWorkspace(len(batch))
    return merge_batch(coords, batch, eta, policy, ws)


def assert_same_terms(got, expect):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestMergeEquivalence:
    @pytest.mark.parametrize("policy", MERGES)
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
    def test_matches_seed_implementation(self, small_synthetic, policy, batch_size):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(11, n_streams=64)
        batch = draw_segment(sampler, rng, batch_size, 0)
        base = initialize_layout(small_synthetic, seed=4).coords
        expected = base.copy()
        seed_collisions = seed_apply_batch(expected, batch, 0.7, policy)
        got = base.copy()
        collisions = merge(got, batch, 0.7, policy)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert collisions == seed_collisions

    @pytest.mark.parametrize("policy", MERGES)
    def test_heavily_colliding_batch(self, policy):
        # Every term hits the same two points: maximal collisions.
        n = 32
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [5.0, 0.0], [6.0, 1.0]])
        batch = make_batch([0] * n, [1] * n, [0] * n, [1] * n, [2.0] * n)
        expected = coords.copy()
        seed_collisions = seed_apply_batch(expected, batch, 1.0, policy)
        got = coords.copy()
        collisions = merge(got, batch, 1.0, policy)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert collisions == seed_collisions == 2 * n - 2

    @pytest.mark.parametrize("policy", MERGES)
    def test_coincident_points_get_degeneracy_nudge(self, policy):
        # Both endpoints at the same location: the x-nudge branch fires.
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        batch = make_batch([0, 0], [1, 1], [0, 1], [0, 1], [3.0, 3.0])
        expected = coords.copy()
        seed_apply_batch(expected, batch, 1.0, policy)
        got = coords.copy()
        merge(got, batch, 1.0, policy)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert not np.allclose(got, coords)

    @pytest.mark.parametrize("policy", MERGES)
    def test_zero_reference_terms_do_not_move(self, policy):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        batch = make_batch([0], [1], [0], [0], [0.0])
        got = coords.copy()
        merge(got, batch, 1.0, policy)
        np.testing.assert_array_equal(got, coords)


class TestWorkspace:
    def test_workspace_size_is_transparent(self, small_synthetic):
        # A batch-sized workspace and one grown from a single term merge
        # the same bytes and count the same collisions.
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(3, n_streams=128)
        batch = draw_segment(sampler, rng, 128, 0)
        base = initialize_layout(small_synthetic, seed=1).coords
        for policy in MERGES:
            sized = base.copy()
            grown = base.copy()
            c1 = merge(sized, batch, 0.5, policy, UpdateWorkspace(128))
            c2 = merge(grown, batch, 0.5, policy, UpdateWorkspace(1))
            np.testing.assert_array_equal(sized, grown)
            assert c1 == c2

    def test_workspace_reused_across_batches(self, small_synthetic):
        # The same buffers back successive calls: no steady-state growth.
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=64)
        coords = initialize_layout(small_synthetic, seed=2).coords
        ws = UpdateWorkspace(64)
        buffers = (ws.merge_points, ws.merge_delta, ws.term_delta)
        for _ in range(4):
            batch = draw_segment(sampler, rng, 64, 0)
            merge(coords, batch, 0.3, "hogwild", ws)
        assert (ws.merge_points, ws.merge_delta, ws.term_delta) == buffers

    def test_workspace_grows_on_demand(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=64)
        ws = UpdateWorkspace(8)
        batch = draw_segment(sampler, rng, 200, 0)
        coords = initialize_layout(small_synthetic, seed=2).coords
        merge(coords, batch, 0.3, "hogwild", ws)
        assert ws.max_batch >= 200

    def test_displacement_views_come_from_workspace(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=32)
        batch = draw_segment(sampler, rng, 32, 0)
        coords = initialize_layout(small_synthetic, seed=2).coords
        ws = UpdateWorkspace(32)
        block = prepare_block(batch, 0.5, ws)
        _, _, delta = compute_displacements(coords, block, 0, ws)
        assert delta.base is ws.term_delta


class TestCompactPoints:
    def test_compaction_matches_unique(self):
        points = np.array([5, 3, 5, 9, 3, 5])
        uniq, inverse, counts = compact_points(points)
        np.testing.assert_array_equal(uniq, [3, 5, 9])
        np.testing.assert_array_equal(uniq[inverse], points)
        np.testing.assert_array_equal(counts, [2, 3, 1])

    def test_collision_free_batch(self):
        uniq, inverse, counts = compact_points(np.array([1, 2, 3]))
        assert uniq.size == 3
        assert np.all(counts == 1)


class TestSplitIntoBatches:
    def test_even_and_remainder(self):
        assert split_into_batches(10, 4) == [4, 4, 2]
        assert split_into_batches(8, 4) == [4, 4]

    def test_chunk_clamped(self):
        assert split_into_batches(3, 100) == [3]
        assert split_into_batches(3, 0) == [1, 1, 1]

    def test_empty(self):
        assert split_into_batches(0, 4) == []


class TestDrawOrder:
    """The run's draw against the seed's nested loop: a 6-vector draw, then
    a 2-vector one (the fixed hop: two 2-vector draws), per segment."""

    @pytest.mark.parametrize("n_streams", [1, 3, 64, 256, 512])
    @pytest.mark.parametrize("batch_size", [1, 5, 63, 64, 65, 256, 300])
    def test_draw_segment_matches_seed_draw_order(self, small_synthetic,
                                                  n_streams, batch_size):
        sampler = PairSampler(small_synthetic, LayoutParams(iter_max=10))
        for iteration in (0, 9):
            r_new = Xoshiro256Plus(7, n_streams=n_streams)
            r_old = Xoshiro256Plus(7, n_streams=n_streams)
            got = draw_segment(sampler, r_new, batch_size, iteration)
            draws = np.vstack([seed_uniforms(r_old, batch_size, 6),
                               seed_uniforms(r_old, batch_size, 2)])
            assert_same_terms(got, sampler.select_from_uniforms(
                draws, batch_size, iteration))
            # Both consumed the exact same number of PRNG calls.
            np.testing.assert_array_equal(r_new.state, r_old.state)

    @pytest.mark.parametrize("n_streams", [1, 3, 64])
    @pytest.mark.parametrize("batch_size", [1, 65, 300])
    def test_fixed_hop_matches_seed_draw_order(self, small_synthetic,
                                               n_streams, batch_size):
        sampler = PairSampler(small_synthetic, LayoutParams())
        r_new = Xoshiro256Plus(19, n_streams=n_streams)
        r_old = Xoshiro256Plus(19, n_streams=n_streams)
        got = draw_segment(sampler, r_new, batch_size, 0, DrawRecipe(hop=3))
        draws = np.vstack([seed_uniforms(r_old, batch_size, 2),
                           seed_uniforms(r_old, batch_size, 2)])
        assert_same_terms(got, sampler.select_fixed_hop(draws, batch_size, 3))
        np.testing.assert_array_equal(r_new.state, r_old.state)

    @pytest.mark.parametrize("plan,streams", [([20, 20, 3], 7),
                                              ([64, 64, 64, 10], 64),
                                              ([5, 5, 5, 2], 1)])
    def test_chunk_with_remainder_matches_seed_draw_order(self, plan, streams):
        """A multi-segment chunk ending in a remainder segment: one bulk
        draw re-laid by ``iteration_draws`` equals the seed's per-segment
        draws side by side."""
        need, calls = uniform_call_plan(plan, streams)
        r_new = Xoshiro256Plus(23, n_streams=streams)
        r_old = Xoshiro256Plus(23, n_streams=streams)
        got = iteration_draws(r_new.next_double_block(calls), plan, need, streams)
        expect = np.hstack([np.vstack([seed_uniforms(r_old, b, 6),
                                       seed_uniforms(r_old, b, 2)])
                            for b in plan])
        assert got.shape == (8, sum(plan))
        assert np.all((got >= 0.0) & (got < 1.0))
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(r_new.state, r_old.state)

    def test_paths_and_endpoints_follow_the_seed_draws(self, small_synthetic):
        """Vector 0 picks the path through the path index's inverse CDF and
        vectors 6-7 are the endpoint coin flips."""
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(13, n_streams=64)
        reference = Xoshiro256Plus(13, n_streams=64)
        batch = draw_segment(sampler, rng, 100, 0)
        draws = seed_uniforms(reference, 100, 6)
        vis = seed_uniforms(reference, 100, 2)
        np.testing.assert_array_equal(
            batch.path, PathIndex(small_synthetic).sample_paths(draws[0]))
        np.testing.assert_array_equal(batch.vis_i, (vis[0] < 0.5).astype(np.int64))
        np.testing.assert_array_equal(batch.vis_j, (vis[1] < 0.5).astype(np.int64))
        np.testing.assert_array_equal(rng.state, reference.state)
